//! Advice-as-a-service: the schema-side contract for serving decode
//! queries out of a persistent class dictionary.
//!
//! The class-closure insight behind the persistent store
//! ([`lad_runtime::store`]) is that an order-invariant decoder's work is a
//! function of the *canonical class* of the advice-labeled ball, not of
//! the concrete node — so a dictionary trained once (on any graphs) can
//! answer decode queries from heavy serving traffic forever after. This
//! module defines what a schema must provide to be served:
//!
//! * [`ServedSchema`] — schema identity, the ladder's initial radius, the
//!   per-class evaluation step (output erased to `Vec<u64>` words so one
//!   store/server type covers every schema), and the per-node *bind* that
//!   turns a stored class verdict into the query node's concrete answer.
//! * [`train_store`] — encode advice and run the real sealed-memo runner
//!   over a training set, folding every sealed table into a
//!   [`ClassStore`] keyed by the schema's identity.
//! * A wire form for query balls ([`ball_to_words`] / [`ball_from_words`])
//!   carrying everything canonicalization depends on — in particular each
//!   node's **true global degree**, which frontier nodes of a ball cannot
//!   reconstruct locally.
//! * [`by_name`] — the registry the `lad_serve` binary and benches use.
//!
//! Two schemas ride the dictionary today: the balanced-orientation schema
//! (class verdict = slot-indexed trail decisions, bound to concrete
//! incident edges per query) and the cluster-coloring schema (class
//! verdict = the color itself, with `Expand` rungs asking the client for
//! a deeper view).

use crate::advice::AdviceMap;
use crate::balanced::BalancedOrientationSchema;
use crate::bits::BitString;
use crate::cluster_coloring::ClusterColoringSchema;
use crate::error::{DecodeError, EncodeError};
use crate::schema::AdviceSchema;
use lad_graph::{GraphBuilder, NodeId};
use lad_runtime::store::{ClassStore, SchemaId, StoreError};
use lad_runtime::{
    canonicalize_tagged_with, Ball, CanonScratch, CanonicalKey, MemoStep, Network, ShardMemo,
};
use std::fmt;

/// A schema that can be served from a persistent class dictionary.
///
/// Outputs are erased to `Vec<u64>` words: the store, the server, and the
/// wire protocol all speak one currency, and each schema defines its own
/// word layout (documented on its impl).
pub trait ServedSchema: Send + Sync {
    /// The identity dictionaries for this schema are keyed by. Two
    /// configurations that decode differently must produce different
    /// identities.
    fn schema_id(&self) -> SchemaId;

    /// The ladder's initial view radius — what radius a client's first
    /// query for a node should use.
    fn initial_radius(&self) -> usize;

    /// Centralized advice encoding (training side).
    ///
    /// # Errors
    ///
    /// See [`EncodeError`].
    fn encode_advice(&self, net: &Network) -> Result<AdviceMap, EncodeError>;

    /// One ladder rung on an advice-labeled ball: the order-invariant
    /// step the dictionary memoizes, with the output serialized to words.
    ///
    /// # Errors
    ///
    /// See [`DecodeError`]; tampered advice must be rejected, not decoded
    /// into garbage.
    fn eval(&self, ball: &Ball<BitString>) -> Result<MemoStep<Vec<u64>>, DecodeError>;

    /// Binds a stored class verdict to the query ball's center, producing
    /// the per-node answer words a client consumes.
    ///
    /// # Errors
    ///
    /// [`DecodeError`] when the verdict does not fit the ball — a stale
    /// or mismatched dictionary entry surfaces as a typed error, never a
    /// silently wrong answer.
    fn bind(&self, ball: &Ball<BitString>, class_words: &[u64]) -> Result<Vec<u64>, DecodeError>;
}

/// Packs schema tunables into the [`SchemaId`] parameter word.
fn pack_params(a: usize, b: usize) -> u64 {
    ((a as u64) << 32) | (b as u64 & 0xFFFF_FFFF)
}

/// Balanced orientations. Class verdict: serialized slot directions
/// (trail decisions indexed by UID-order slot, shareable across a class).
/// Bound answer: `[pair count, tail uid, head uid, …]` — the center's
/// incident edges as oriented uid claims.
impl ServedSchema for BalancedOrientationSchema {
    fn schema_id(&self) -> SchemaId {
        SchemaId::new(
            AdviceSchema::name(self),
            pack_params(self.short_threshold, self.anchor_spacing),
        )
    }

    fn initial_radius(&self) -> usize {
        self.decode_radius()
    }

    fn encode_advice(&self, net: &Network) -> Result<AdviceMap, EncodeError> {
        AdviceSchema::encode(self, net)
    }

    fn eval(&self, ball: &Ball<BitString>) -> Result<MemoStep<Vec<u64>>, DecodeError> {
        crate::balanced::slot_directions(ball, self.walk_budget())
            .map(|dirs| MemoStep::Done(dirs.to_words()))
    }

    fn bind(&self, ball: &Ball<BitString>, class_words: &[u64]) -> Result<Vec<u64>, DecodeError> {
        crate::balanced::bind_class_words(ball, class_words)
    }
}

/// Cluster coloring. Class verdict: the center's greedy `(Δ+1)`-coloring
/// color (one word, 0-based); `Expand` rungs ask the client to re-query
/// with a deeper ball. Bound answer: the color word itself.
impl ServedSchema for ClusterColoringSchema {
    fn schema_id(&self) -> SchemaId {
        SchemaId::new(
            AdviceSchema::name(self),
            pack_params(self.cluster_spacing, self.max_cluster_colors),
        )
    }

    fn initial_radius(&self) -> usize {
        self.step_radius()
    }

    fn encode_advice(&self, net: &Network) -> Result<AdviceMap, EncodeError> {
        AdviceSchema::encode(self, net)
    }

    fn eval(&self, ball: &Ball<BitString>) -> Result<MemoStep<Vec<u64>>, DecodeError> {
        Ok(match self.memo_step(ball)? {
            MemoStep::Done(color) => MemoStep::Done(vec![color as u64]),
            MemoStep::Expand(r) => MemoStep::Expand(r),
        })
    }

    fn bind(&self, ball: &Ball<BitString>, class_words: &[u64]) -> Result<Vec<u64>, DecodeError> {
        let stale = || {
            DecodeError::Inconsistent(
                "stored cluster-coloring verdict is not a valid color — stale or mismatched \
                 dictionary"
                    .into(),
            )
        };
        let [color] = class_words else {
            return Err(stale());
        };
        // A greedy color never exceeds the node's degree — the tightest
        // check the query ball itself can certify.
        if *color > ball.global_degree(ball.center()) as u64 {
            return Err(stale());
        }
        Ok(vec![*color])
    }
}

/// Resolves a served schema by registry name (default configurations) —
/// what `lad_serve train`/`serve` and `serve_bench` accept.
pub fn by_name(name: &str) -> Option<Box<dyn ServedSchema>> {
    match name {
        "balanced" => Some(Box::new(BalancedOrientationSchema::default())),
        "cluster" => Some(Box::new(ClusterColoringSchema::default())),
        _ => None,
    }
}

/// The registry names [`by_name`] accepts.
pub const SERVED_SCHEMAS: &[&str] = &["balanced", "cluster"];

/// Canonicalizes a query ball exactly the way training keyed it (advice
/// bits folded through [`BitString::push_key_words`]) — the probe key for
/// a [`ClassStore`] built by [`train_store`].
pub fn query_key(ball: &Ball<BitString>, scratch: &mut CanonScratch) -> CanonicalKey {
    canonicalize_tagged_with(ball, |bits, words| bits.push_key_words(words), scratch)
}

/// Why training a dictionary failed.
#[derive(Debug)]
pub enum TrainError {
    /// The encoder could not produce advice for a training network.
    Encode(EncodeError),
    /// The decoder rejected its advice during sealing.
    Decode(DecodeError),
    /// Two training networks resolved one class differently.
    Store(StoreError),
}

impl fmt::Display for TrainError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TrainError::Encode(e) => write!(f, "training encode failed: {e}"),
            TrainError::Decode(e) => write!(f, "training decode failed: {e}"),
            TrainError::Store(e) => write!(f, "training store conflict: {e}"),
        }
    }
}

impl std::error::Error for TrainError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            TrainError::Encode(e) => Some(e),
            TrainError::Decode(e) => Some(e),
            TrainError::Store(e) => Some(e),
        }
    }
}

/// Trains a class dictionary: encodes advice for each training network,
/// runs the real memo tile loop over every node ([`ShardMemo::train`]),
/// and folds each sealed table into one [`ClassStore`] under the schema's
/// identity. The resulting store answers queries from *any* network whose
/// local structure appeared in training.
///
/// # Errors
///
/// See [`TrainError`]; conflicts across training networks mean the
/// schema's decoder is not order-invariant.
pub fn train_store(
    schema: &dyn ServedSchema,
    training: &[Network],
) -> Result<ClassStore<Vec<u64>>, TrainError> {
    let mut store = ClassStore::new(schema.schema_id(), schema.initial_radius());
    for net in training {
        let advice = schema.encode_advice(net).map_err(TrainError::Encode)?;
        let advised = net.with_inputs(advice.strings());
        let memo = ShardMemo::train(
            &advised,
            schema.initial_radius(),
            |bits: &BitString, words: &mut Vec<u64>| bits.push_key_words(words),
            |ball| schema.eval(ball),
        )
        .map_err(TrainError::Decode)?;
        store.absorb_shard_memo(memo).map_err(TrainError::Store)?;
    }
    Ok(store)
}

// ---------------------------------------------------------------------------
// Wire form for query balls
// ---------------------------------------------------------------------------

/// A query ball that did not parse.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WireError {
    msg: String,
}

impl WireError {
    /// A typed wire-format error.
    pub fn new(msg: impl Into<String>) -> Self {
        WireError { msg: msg.into() }
    }
}

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "malformed query ball: {}", self.msg)
    }
}

impl std::error::Error for WireError {}

/// Serializes an advice-labeled ball for the wire:
///
/// ```text
/// [radius, n, m,
///  per node: dist, uid, true global degree,
///            advice bit length, packed advice bits (LSB first)…,
///  per edge: (min << 32) | max, strictly ascending]
/// ```
///
/// True degrees are carried explicitly because canonicalization depends
/// on them and a ball's frontier nodes cannot reconstruct theirs from the
/// view subgraph.
pub fn ball_to_words(ball: &Ball<BitString>) -> Vec<u64> {
    let g = ball.graph();
    let n = g.n();
    let mut words = Vec::with_capacity(3 + 5 * n + g.m());
    words.push(ball.radius() as u64);
    words.push(n as u64);
    words.push(g.m() as u64);
    for v in g.nodes() {
        words.push(ball.dist(v) as u64);
        words.push(ball.uid(v));
        words.push(ball.global_degree(v) as u64);
        let bits = ball.input(v).as_slice();
        words.push(bits.len() as u64);
        for chunk in bits.chunks(64) {
            let mut w = 0u64;
            for (i, &b) in chunk.iter().enumerate() {
                w |= u64::from(b) << i;
            }
            words.push(w);
        }
    }
    // Graph edge lists are sorted lexicographically by (min, max), so the
    // packed words come out strictly ascending — the canonical wire order
    // the parser insists on.
    for e in g.edge_ids() {
        let (a, b) = g.endpoints(e);
        words.push(((a.index() as u64) << 32) | b.index() as u64);
    }
    words
}

/// Parses a ball serialized by [`ball_to_words`], validating every field
/// (bounds, center distance, canonical edge order) so a corrupt or
/// hostile query yields a typed error, never a panic.
///
/// # Errors
///
/// [`WireError`] on any structural violation.
pub fn ball_from_words(words: &[u64]) -> Result<Ball<BitString>, WireError> {
    let bad = |msg: &str| WireError::new(msg);
    fn next(
        it: &mut std::iter::Copied<std::slice::Iter<'_, u64>>,
        what: &'static str,
    ) -> Result<u64, WireError> {
        it.next()
            .ok_or_else(|| WireError::new(format!("truncated at {what}")))
    }
    let mut it = words.iter().copied();
    let radius = usize::try_from(next(&mut it, "radius")?).map_err(|_| bad("radius overflows"))?;
    let n =
        usize::try_from(next(&mut it, "node count")?).map_err(|_| bad("node count overflows"))?;
    let m =
        usize::try_from(next(&mut it, "edge count")?).map_err(|_| bad("edge count overflows"))?;
    if n == 0 || n > u32::MAX as usize {
        return Err(bad("node count out of range"));
    }
    // Each node contributes ≥ 4 words and each edge 1: a cheap bound that
    // stops a corrupt count from driving large allocations below. An
    // overflowing total is itself a hostile claim, never an accept.
    let Some(total) = n.checked_mul(4).and_then(|w| w.checked_add(m)) else {
        return Err(bad("counts exceed the payload"));
    };
    if total > words.len() {
        return Err(bad("counts exceed the payload"));
    }
    let mut dist = Vec::with_capacity(n);
    let mut uids = Vec::with_capacity(n);
    let mut degrees = Vec::with_capacity(n);
    let mut inputs = Vec::with_capacity(n);
    for _ in 0..n {
        let d = usize::try_from(next(&mut it, "dist")?).map_err(|_| bad("dist overflows"))?;
        if d > radius {
            return Err(bad("node distance exceeds the radius"));
        }
        dist.push(d);
        uids.push(next(&mut it, "uid")?);
        degrees
            .push(usize::try_from(next(&mut it, "degree")?).map_err(|_| bad("degree overflows"))?);
        let bit_len = usize::try_from(next(&mut it, "advice length")?)
            .map_err(|_| bad("advice length overflows"))?;
        // Bound the claimed length against the remaining payload *before*
        // allocating, so a small hostile frame cannot request gigabytes.
        let word_count = bit_len.div_ceil(64);
        if word_count > it.len() {
            return Err(bad("advice length exceeds the payload"));
        }
        let mut bits = Vec::with_capacity(bit_len);
        for w in 0..word_count {
            let packed = next(&mut it, "advice bits")?;
            let take = (bit_len - w * 64).min(64);
            if take < 64 && packed >> take != 0 {
                return Err(bad("advice padding bits are not zero"));
            }
            bits.extend((0..take).map(|i| packed >> i & 1 == 1));
        }
        inputs.push(BitString::from_bits(bits));
    }
    if dist[0] != 0 {
        return Err(bad("center (local index 0) is not at distance 0"));
    }
    let mut builder = GraphBuilder::new(n);
    let mut prev: Option<u64> = None;
    for _ in 0..m {
        let packed = next(&mut it, "edge")?;
        if prev.is_some_and(|p| p >= packed) {
            return Err(bad("edges are not strictly ascending"));
        }
        prev = Some(packed);
        let a = (packed >> 32) as usize;
        let b = (packed & 0xFFFF_FFFF) as usize;
        if a >= b || b >= n {
            return Err(bad("edge endpoints out of range"));
        }
        builder.add_edge(NodeId::from_index(a), NodeId::from_index(b));
    }
    if it.next().is_some() {
        return Err(bad("trailing words"));
    }
    let graph = builder.build();
    for v in graph.nodes() {
        if graph.degree(v) > degrees[v.index()] {
            return Err(bad("local degree exceeds the claimed global degree"));
        }
    }
    Ok(Ball::assemble(graph, radius, dist, uids, inputs, degrees))
}

#[cfg(test)]
mod tests {
    use super::*;
    use lad_graph::{generators, IdAssignment};

    fn advised_net(seed: u64) -> Network<BitString> {
        let g = generators::random_even_degree(30, 4, 6, seed);
        let n = g.n();
        let net = Network::with_ids(g, IdAssignment::random_permutation(n, seed ^ 0xA5));
        let schema = BalancedOrientationSchema::default();
        let advice = ServedSchema::encode_advice(&schema, &net).expect("even degrees encode");
        net.with_inputs(advice.strings())
    }

    #[test]
    fn wire_ball_round_trips_and_keys_identically() {
        let net = advised_net(11);
        let schema = BalancedOrientationSchema::default();
        let mut scratch = CanonScratch::new();
        for v in net.graph().nodes() {
            let ball = Ball::collect(&net, v, schema.initial_radius());
            let words = ball_to_words(&ball);
            let back = ball_from_words(&words).expect("round trip parses");
            assert_eq!(back.n(), ball.n());
            assert_eq!(
                query_key(&back, &mut scratch),
                query_key(&ball, &mut scratch),
                "wire round trip changed the canonical key at {v:?}"
            );
            // Re-serializing the assembled ball is byte-identical.
            assert_eq!(ball_to_words(&back), words);
        }
    }

    #[test]
    fn wire_parser_rejects_corruption_without_panicking() {
        let net = advised_net(13);
        let ball = Ball::collect(
            &net,
            lad_graph::NodeId::from_index(0),
            BalancedOrientationSchema::default().initial_radius(),
        );
        let words = ball_to_words(&ball);
        assert!(ball_from_words(&[]).is_err());
        for len in 0..words.len() {
            // Truncations: typed error or (never) silent acceptance.
            assert!(
                ball_from_words(&words[..len]).is_err(),
                "truncation to {len} words accepted"
            );
        }
        for i in 0..words.len() {
            let mut corrupt = words.clone();
            corrupt[i] = corrupt[i].wrapping_add(1);
            // Any result is fine except a panic; most mutations must fail
            // structurally, a uid/advice flip parses to a different key.
            let _ = ball_from_words(&corrupt);
        }
    }

    #[test]
    fn hostile_size_claims_are_rejected_before_allocating() {
        // n*4 + m overflows usize: the counts guard must treat overflow as
        // an explicit error, not fall through to per-node allocations.
        assert!(ball_from_words(&[1, u32::MAX as u64, u64::MAX]).is_err());
        assert!(ball_from_words(&[1, 2, u64::MAX]).is_err());
        // A tiny frame claiming ~2^62 advice bits: the claim must be
        // bounded against the remaining payload before Vec::with_capacity.
        let frame = [1, 1, 0, 0, 7, 0, 1 << 62];
        assert!(ball_from_words(&frame).is_err());
        // Same claim mid-frame, with plausible words after it.
        let frame = [1, 2, 1, 0, 7, 3, u64::MAX, 1, 8, 2, 0, 1];
        assert!(ball_from_words(&frame).is_err());
    }

    #[test]
    fn trained_store_serves_every_training_query() {
        let schema = BalancedOrientationSchema::default();
        let nets: Vec<Network> = (0..3)
            .map(|s| {
                let g = generators::random_even_degree(24, 3, 6, 40 + s);
                let n = g.n();
                Network::with_ids(g, IdAssignment::random_permutation(n, 90 + s))
            })
            .collect();
        let store = train_store(&schema, &nets).expect("training succeeds");
        assert_eq!(store.schema(), &ServedSchema::schema_id(&schema));
        assert!(!store.is_empty());
        // Every node of every training net hits the dictionary, and the
        // bound answer equals a live eval + bind.
        let mut scratch = CanonScratch::new();
        for net in &nets {
            let advice = ServedSchema::encode_advice(&schema, net).expect("encode");
            let advised = net.with_inputs(advice.strings());
            for v in net.graph().nodes() {
                let ball = Ball::collect(&advised, v, ServedSchema::initial_radius(&schema));
                let key = query_key(&ball, &mut scratch);
                let verdict = store.get(&key).expect("training view must be stored");
                let lad_runtime::ClassVerdict::Done(words) = verdict else {
                    panic!("balanced ladder has no Expand rungs");
                };
                let served = schema.bind(&ball, words).expect("bind");
                let MemoStep::Done(live_words) = schema.eval(&ball).expect("eval") else {
                    unreachable!()
                };
                let live = schema.bind(&ball, &live_words).expect("bind live");
                assert_eq!(served, live, "served answer diverged at {v:?}");
            }
        }
    }

    #[test]
    fn cluster_schema_round_trips_with_expand_rungs() {
        let schema = ClusterColoringSchema::new(2, 16);
        let nets: Vec<Network> = (0..2)
            .map(|s| {
                Network::with_ids(
                    generators::cycle(40),
                    IdAssignment::random_permutation(40, 7 + s),
                )
            })
            .collect();
        let store = train_store(&schema, &nets).expect("training succeeds");
        let has_expand = store
            .iter()
            .any(|(_, v)| matches!(v, lad_runtime::ClassVerdict::Expand(_)));
        let has_done = store
            .iter()
            .any(|(_, v)| matches!(v, lad_runtime::ClassVerdict::Done(_)));
        assert!(has_done, "some classes must resolve");
        // Cycles with spacing-2 clusters typically need at least one
        // escalation; if not, the ladder portion is still exercised by
        // the runtime tests.
        let _ = has_expand;
    }
}
