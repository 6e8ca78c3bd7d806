//! Contribution 3 (Section 5): almost-balanced orientations with sparse
//! advice.
//!
//! # How it works
//!
//! The encoder computes the [`lad_graph::EulerPartition`] of the graph — the paper's
//! virtual graph `G'` of cycles and paths, realized as a UID-determined
//! pairing of incident edges — and orients every trail consistently:
//!
//! - **Short trails** (at most [`BalancedOrientationSchema::short_threshold`]
//!   edges) carry *no advice at all*: a decoder that walks the whole trail
//!   orients it by a canonical direction rule (the lexicographically
//!   smaller UID sequence; for cycles, the smaller minimal rotation). This
//!   is the paper's "cycles of length at most `r` can be consistently
//!   oriented without any advice".
//! - **Long trails** get *anchors* every
//!   [`BalancedOrientationSchema::anchor_spacing`] positions: a record
//!   `(slot, direction-bit)` stored in the advice of the anchored node,
//!   pinning the trail's orientation at that slot. A decoder walks its
//!   trail at most `spacing` steps in each direction and is guaranteed to
//!   meet an anchor (or a trail end, or to close a short cycle).
//!
//! In the rare case where the canonical direction rule ties (a palindromic
//! trail), the encoder simply anchors the trail regardless of length —
//! this replaces a case the paper never needs to discuss because its
//! orientation is fixed existentially.
//!
//! Decoding therefore takes `max(short_threshold, spacing) + 1` rounds —
//! a constant independent of `n` — while without advice the problem needs
//! `Ω(n)` rounds on a cycle (see experiment E10).

use crate::advice::AdviceMap;
use crate::bits::{bit_width, BitReader, BitString};
use crate::error::{DecodeError, EncodeError};
use crate::schema::AdviceSchema;
use lad_graph::orientation::{
    pair_partner, slot_edges, slot_of, slot_pairs, sorted_incident_by_uid,
};
use lad_graph::{EdgeId, Graph, NodeId, Orientation, Trail};
use lad_runtime::{MemoStep, Network, RoundStats, Run};

/// The almost-balanced-orientation schema (Contribution 3).
///
/// # Example
///
/// ```
/// use lad_core::balanced::BalancedOrientationSchema;
/// use lad_core::schema::AdviceSchema;
/// use lad_graph::generators;
/// use lad_runtime::Network;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let net = Network::with_identity_ids(generators::random_even_degree(40, 6, 8, 1));
/// let schema = BalancedOrientationSchema::default();
/// let advice = schema.encode(&net)?;
/// let (o, _) = schema.decode(&net, &advice)?;
/// assert!(o.is_balanced(net.graph())); // all degrees even -> fully balanced
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BalancedOrientationSchema {
    /// Trails with at most this many edges carry no advice; the decoder
    /// walks them entirely.
    pub short_threshold: usize,
    /// Anchors are placed at most this many trail positions apart on long
    /// trails. Smaller spacing = more advice, fewer decode rounds.
    pub anchor_spacing: usize,
}

impl Default for BalancedOrientationSchema {
    fn default() -> Self {
        BalancedOrientationSchema {
            short_threshold: 16,
            anchor_spacing: 12,
        }
    }
}

impl BalancedOrientationSchema {
    /// A schema with explicit parameters.
    ///
    /// # Panics
    ///
    /// Panics if either parameter is zero.
    pub fn new(short_threshold: usize, anchor_spacing: usize) -> Self {
        assert!(short_threshold >= 1 && anchor_spacing >= 1);
        BalancedOrientationSchema {
            short_threshold,
            anchor_spacing,
        }
    }

    /// The walk budget of the decoder (steps in each direction).
    pub fn walk_budget(&self) -> usize {
        self.short_threshold.max(self.anchor_spacing)
    }

    /// The view radius the decoder uses (`walk_budget + 1`).
    pub fn decode_radius(&self) -> usize {
        self.walk_budget() + 1
    }

    /// Decodes the orientation of every edge incident to the center of
    /// `ball` (which must have radius [`Self::decode_radius`]), as
    /// directed identifier pairs `(from uid, to uid)`.
    ///
    /// This is the per-node half of [`AdviceSchema::decode`], exposed so
    /// that views assembled over a faulty transport (see [`crate::checked`])
    /// can be decoded too: such balls carry no global edge ids, so claims
    /// are keyed by the identifiers the view itself vouches for, and
    /// [`aggregate_claims`] cross-checks them against the real graph.
    ///
    /// # Errors
    ///
    /// Rejects malformed or insufficient advice in the view, exactly like
    /// the full decoder.
    pub fn decode_view(
        &self,
        ball: &lad_runtime::Ball<BitString>,
    ) -> Result<Vec<(u64, u64)>, DecodeError> {
        let per_edge = decode_at_node(ball, self.walk_budget())?;
        let g = ball.graph();
        let uids = ball.uids();
        let c = ball.center();
        Ok(per_edge
            .into_iter()
            .map(|(e, out_of_center)| {
                let u = g.other_endpoint(e, c);
                if out_of_center {
                    (uids[c.index()], uids[u.index()])
                } else {
                    (uids[u.index()], uids[c.index()])
                }
            })
            .collect())
    }
}

/// Cross-checks per-node directed claims `(from uid, to uid)` — one list
/// per node, in node order — and materializes the global [`Orientation`].
///
/// # Errors
///
/// [`DecodeError::Inconsistent`] when a claim names an unknown node or a
/// non-edge, when the two endpoints of an edge claim opposite directions,
/// or when some edge was never claimed at all.
pub fn aggregate_claims(
    net: &Network,
    claims: &[Vec<(u64, u64)>],
) -> Result<Orientation, DecodeError> {
    let g = net.graph();
    let node_of: std::collections::HashMap<u64, NodeId> =
        g.nodes().map(|v| (net.uid(v), v)).collect();
    let mut decided: Vec<Option<bool>> = vec![None; g.m()];
    for (v, list) in g.nodes().zip(claims) {
        for &(from, to) in list {
            let (a, b) = match (node_of.get(&from), node_of.get(&to)) {
                (Some(&a), Some(&b)) => (a, b),
                _ => {
                    return Err(DecodeError::Inconsistent(format!(
                        "node {} claims an orientation involving an unknown identifier \
                         ({from} -> {to})",
                        net.uid(v)
                    )))
                }
            };
            let e = g.edge_between(a, b).ok_or_else(|| {
                DecodeError::Inconsistent(format!(
                    "node {} orients {from} -> {to}, which is not an edge",
                    net.uid(v)
                ))
            })?;
            let (_lo, hi) = g.endpoints(e);
            let toward_higher = b == hi;
            match decided[e.index()] {
                None => decided[e.index()] = Some(toward_higher),
                Some(prev) if prev == toward_higher => {}
                Some(_) => {
                    return Err(DecodeError::Inconsistent(format!(
                        "endpoints of {e:?} disagree on its orientation"
                    )))
                }
            }
        }
    }
    let mut orientation = Orientation::new(g.m());
    for (e, d) in g.edge_ids().zip(decided) {
        let toward_higher =
            d.ok_or_else(|| DecodeError::Inconsistent(format!("edge {e:?} was never oriented")))?;
        let (lo, hi) = g.endpoints(e);
        if toward_higher {
            orientation.set(g, e, lo, hi);
        } else {
            orientation.set(g, e, hi, lo);
        }
    }
    Ok(orientation)
}

// ---------------------------------------------------------------------------
// Canonical direction rules (shared by encoder and decoder).
// ---------------------------------------------------------------------------

/// Index of the lexicographically least rotation — Booth's algorithm,
/// `O(k)` (trails can be as long as the whole graph, so a quadratic scan
/// would dominate encoding at scale).
fn least_rotation_index(seq: &[u64]) -> usize {
    let n = seq.len();
    if n == 0 {
        return 0;
    }
    let at = |i: usize| seq[i % n];
    let mut f: Vec<isize> = vec![-1; 2 * n];
    let mut k = 0usize;
    for j in 1..2 * n {
        let sj = at(j);
        let mut i = f[j - k - 1];
        while i != -1 && sj != at(k + i as usize + 1) {
            if sj < at(k + i as usize + 1) {
                k = j - i as usize - 1;
            }
            i = f[i as usize];
        }
        if i == -1 && sj != at(k) {
            if sj < at(k) {
                k = j;
            }
            f[j - k] = -1;
        } else if i == -1 {
            f[j - k] = 0;
        } else {
            f[j - k] = i + 1;
        }
    }
    k % n
}

/// Lexicographically minimal rotation of a sequence, materialized.
fn min_rotation(seq: &[u64]) -> Vec<u64> {
    let k = seq.len();
    let s = least_rotation_index(seq);
    (0..k).map(|i| seq[(s + i) % k]).collect()
}

/// Canonical direction of a closed trail given its UID sequence along one
/// direction: `Some(true)` = that direction, `Some(false)` = the reverse,
/// `None` = tie (palindromic trail; an anchor is required).
pub fn cycle_canonical_forward(seq: &[u64]) -> Option<bool> {
    let rev: Vec<u64> = seq.iter().rev().copied().collect();
    let mf = min_rotation(seq);
    let mb = min_rotation(&rev);
    match mf.cmp(&mb) {
        std::cmp::Ordering::Less => Some(true),
        std::cmp::Ordering::Greater => Some(false),
        std::cmp::Ordering::Equal => None,
    }
}

/// Canonical direction of an open trail given its endpoint-to-endpoint UID
/// sequence: `Some(true)` = as given, `Some(false)` = reversed, `None` =
/// palindrome tie.
pub fn open_canonical_forward(seq: &[u64]) -> Option<bool> {
    let rev: Vec<u64> = seq.iter().rev().copied().collect();
    match seq.cmp(&rev[..]) {
        std::cmp::Ordering::Less => Some(true),
        std::cmp::Ordering::Greater => Some(false),
        std::cmp::Ordering::Equal => None,
    }
}

// ---------------------------------------------------------------------------
// Anchor records.
// ---------------------------------------------------------------------------

/// One anchor record at a node: the trail through `slot` is oriented so
/// that it *enters* through the slot's first edge iff `enters_first`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AnchorRecord {
    /// Slot index at the holding node.
    pub slot: usize,
    /// Whether the orientation enters via the slot's first (lower-UID-
    /// neighbor) edge and exits via the second.
    pub enters_first: bool,
}

/// Serializes a node's anchor records (sorted by slot) into its advice
/// string. `degree` is the node's degree (determines the slot field width).
pub fn encode_records(records: &mut [AnchorRecord], degree: usize) -> BitString {
    records.sort_by_key(|r| r.slot);
    let width = bit_width(degree / 2);
    let mut bits = BitString::new();
    for r in records.iter() {
        bits.push_uint(r.slot as u64, width);
        bits.push(r.enters_first);
    }
    bits
}

/// Parses a node's advice string into anchor records. Returns `None` on
/// malformed advice (wrong length, out-of-range slot).
pub fn decode_records(bits: &BitString, degree: usize) -> Option<Vec<AnchorRecord>> {
    if bits.is_empty() {
        return Some(Vec::new());
    }
    let pairs = degree / 2;
    if pairs == 0 {
        return None;
    }
    let width = bit_width(pairs);
    if !bits.len().is_multiple_of(width + 1) {
        return None;
    }
    let mut reader = BitReader::new(bits);
    let mut out = Vec::new();
    while reader.remaining() > 0 {
        let slot = reader.read_uint(width)? as usize;
        if slot >= pairs {
            return None;
        }
        let enters_first = reader.read_bit()?;
        out.push(AnchorRecord { slot, enters_first });
    }
    Some(out)
}

// ---------------------------------------------------------------------------
// Encoding.
// ---------------------------------------------------------------------------

/// A trail's stable identity across edits: the lexicographically smallest
/// `(lo_uid, hi_uid)` endpoint pair among its edges.
///
/// Trails partition the edge set, so tokens are unique within one Euler
/// partition; and because the token is built from uids (never [`EdgeId`]s,
/// which renumber globally on any edit), a trail untouched by an edit
/// batch keeps its token. The churn session ([`crate::churn`]) keys every
/// per-node anchor record by the token of the trail that placed it.
pub type TrailToken = (u64, u64);

/// Computes a trail's [`TrailToken`]. Enumeration-independent: any
/// reconstruction of the same trail (different start, different direction)
/// yields the same token.
pub fn trail_token(g: &Graph, uids: &[u64], trail: &Trail) -> TrailToken {
    trail
        .edges
        .iter()
        .map(|&e| {
            let (a, b) = g.endpoints(e);
            let (x, y) = (uids[a.index()], uids[b.index()]);
            if x < y {
                (x, y)
            } else {
                (y, x)
            }
        })
        .min()
        .expect("trails have at least one edge")
}

/// Direction for a canonical-rule tie on a closed trail: the direction in
/// which the token edge is traversed from its lower- to its higher-uid
/// endpoint. Ties force anchors, so the decoder never needs to reproduce
/// this rule — it only has to be enumeration-free so that re-encoding the
/// same trail from any reconstruction places identical anchors.
fn tie_direction_closed(trail: &Trail, uids: &[u64]) -> bool {
    let len = trail.len();
    let uid = |v: NodeId| uids[v.index()];
    let j = (0..len)
        .min_by_key(|&i| {
            let (x, y) = (uid(trail.nodes[i]), uid(trail.nodes[i + 1]));
            if x < y {
                (x, y)
            } else {
                (y, x)
            }
        })
        .expect("closed trails have at least one edge");
    uid(trail.nodes[j]) < uid(trail.nodes[j + 1])
}

/// The anchor records a trail contributes, as a **pure function of the
/// trail's structure** — independent of how the trail was enumerated
/// (start node, rotation, direction). Two consequences the churn session
/// relies on:
///
/// * a trail untouched by an edit batch re-encodes **bit-identically**, so
///   local repair (drop affected trails' records, add their replacements)
///   reproduces a from-scratch encode exactly;
/// * a trail reconstructed by walking from any of its nodes yields the
///   same records as the full Euler partition's enumeration of it.
///
/// The canonicalization: the trail is directed by the same rule the
/// decoder uses on unanchored trails ([`cycle_canonical_forward`] /
/// [`open_canonical_forward`]; a tied closed trail — which is anchored
/// regardless of length — falls back to the token-edge direction). Open
/// trails then have a well-defined start (the canonical-direction first
/// endpoint); closed trails are rotated to the lexicographically least
/// rotation of the directed uid word (`least_rotation_index`), which is
/// unique because a directed trail word is aperiodic — a period `p < len`
/// would make positions `0` and `p` traverse the same uid pair, i.e. the
/// same edge twice, contradicting edge-disjointness. Anchors go every
/// `spacing` positions from that start.
///
/// (Open trails cannot tie: a palindromic open word would pair up edge `i`
/// with edge `len-1-i` as identical uid pairs — the same edge twice —
/// leaving at most the middle edge, and a single-edge trail `[a, b]` is
/// never a palindrome. The tie arm for open trails is defensive only.)
pub fn trail_records(
    g: &Graph,
    uids: &[u64],
    trail: &Trail,
    short_threshold: usize,
    spacing: usize,
) -> Vec<(NodeId, AnchorRecord)> {
    let len = trail.len();
    let uid = |v: NodeId| uids[v.index()];
    // Directed node/edge sequences and the anchored directed positions.
    let (dnodes, dedges, positions): (Vec<NodeId>, Vec<EdgeId>, Vec<usize>) = if trail.closed {
        let seq: Vec<u64> = trail.nodes[..len].iter().map(|&v| uid(v)).collect();
        let (forward, force) = match cycle_canonical_forward(&seq) {
            Some(f) => (f, false),
            None => (tie_direction_closed(trail, uids), true),
        };
        if len <= short_threshold && !force {
            return Vec::new();
        }
        let (dn, de): (Vec<NodeId>, Vec<EdgeId>) = if forward {
            (trail.nodes[..len].to_vec(), trail.edges.clone())
        } else {
            // Reversed traversal: start stays at nodes[0], then walk the
            // enumeration backwards; directed edge i connects dn[i] to
            // dn[(i + 1) % len].
            let mut dn = vec![trail.nodes[0]];
            dn.extend(trail.nodes[1..len].iter().rev());
            (dn, trail.edges.iter().rev().copied().collect())
        };
        let word: Vec<u64> = dn.iter().map(|&v| uid(v)).collect();
        let r0 = least_rotation_index(&word);
        let count = len.div_ceil(spacing);
        let pos = (0..count).map(|j| (r0 + j * spacing) % len).collect();
        (dn, de, pos)
    } else {
        let seq: Vec<u64> = trail.nodes.iter().map(|&v| uid(v)).collect();
        let (forward, force) = match open_canonical_forward(&seq) {
            Some(f) => (f, false),
            None => (true, true),
        };
        if len <= short_threshold && !force {
            return Vec::new();
        }
        let (dn, de): (Vec<NodeId>, Vec<EdgeId>) = if forward {
            (trail.nodes.clone(), trail.edges.clone())
        } else {
            (
                trail.nodes.iter().rev().copied().collect(),
                trail.edges.iter().rev().copied().collect(),
            )
        };
        let pos = (1..len).step_by(spacing).collect();
        (dn, de, pos)
    };
    positions
        .into_iter()
        .map(|p| {
            let w = dnodes[p];
            // Directed edge i runs dnodes[i] -> dnodes[i + 1]; the trail
            // enters position p via edge p-1 (cyclically for closed
            // trails; open anchors sit at interior positions, p >= 1).
            let arrive = dedges[(p + len - 1) % len];
            let slot = slot_of(g, uids, w, arrive).expect("consecutive trail edges share a slot");
            let (first, _second) = slot_edges(g, uids, w, slot);
            (
                w,
                AnchorRecord {
                    slot,
                    enters_first: arrive == first,
                },
            )
        })
        .collect()
}

impl AdviceSchema for BalancedOrientationSchema {
    type Output = Orientation;

    fn name(&self) -> String {
        format!(
            "balanced-orientation(short={}, spacing={})",
            self.short_threshold, self.anchor_spacing
        )
    }

    fn encode_with(&self, net: &Network, run: &Run) -> Result<AdviceMap, EncodeError> {
        let g = net.graph();
        let uids = net.uids();
        let ep = lad_graph::EulerPartition::new(g, uids);
        // Trails are edge-disjoint and anchor placement touches only the
        // trail's own nodes and slots, so each trail is an independent work
        // item: fan out per trail, then merge in trail order. The merge
        // order reproduces the sequential push order exactly (and the
        // per-node records are sorted by slot before encoding anyway, with
        // slots unique per node across trails), so the resulting advice is
        // bit-identical to a sequential pass by construction.
        let per_trail: Vec<Vec<(NodeId, AnchorRecord)>> = run.map(ep.trails(), |_, trail| {
            trail_records(g, uids, trail, self.short_threshold, self.anchor_spacing)
        });
        let mut records: Vec<Vec<AnchorRecord>> = vec![Vec::new(); g.n()];
        for placed in per_trail {
            for (w, rec) in placed {
                records[w.index()].push(rec);
            }
        }
        // Packed once via `from_strings` (per-node `set` calls would shift
        // the arena tail, quadratic in the holder count).
        let strings: Vec<BitString> = g
            .nodes()
            .map(|v| {
                if records[v.index()].is_empty() {
                    BitString::new()
                } else {
                    encode_records(&mut records[v.index()], g.degree(v))
                }
            })
            .collect();
        Ok(AdviceMap::from_strings(strings))
    }

    fn decode_with(
        &self,
        net: &Network,
        advice: &AdviceMap,
        run: &Run,
    ) -> Result<(Orientation, RoundStats), DecodeError> {
        if advice.n() != net.graph().n() {
            return Err(DecodeError::Inconsistent(
                "advice covers a different node count".into(),
            ));
        }
        let advised = net.with_inputs(advice.strings());
        // Each node decides its slot-indexed directions from its ball; uid
        // claims name specific identifiers, so the slots are re-bound to
        // concrete edges per node on the real graph.
        let budget = self.walk_budget();
        let (dirs, stats) = run.ladder(&advised, self.decode_radius(), |ball| {
            slot_directions(ball, budget).map(MemoStep::Done)
        })?;
        let g = net.graph();
        let uids = net.uids();
        let claims: Vec<Vec<(u64, u64)>> = g
            .nodes()
            .map(|c| {
                bind_slots(g, uids, c, &dirs[c.index()])
                    .into_iter()
                    .map(|(e, out_of_center)| {
                        let u = g.other_endpoint(e, c);
                        if out_of_center {
                            (uids[c.index()], uids[u.index()])
                        } else {
                            (uids[u.index()], uids[c.index()])
                        }
                    })
                    .collect()
            })
            .collect();
        // Cross-check and materialize — the same aggregation the gathered
        // fault-tolerant path uses.
        let orientation = aggregate_claims(net, &claims)?;
        Ok((orientation, stats))
    }
}

impl BalancedOrientationSchema {
    /// Per-node oracle decode over the *reference* executor
    /// ([`lad_runtime::run_local_fallible`]): the differential baseline the
    /// planned [`AdviceSchema::decode`] ladder is pinned against in tests.
    ///
    /// # Errors
    ///
    /// Same contract as [`AdviceSchema::decode`].
    pub fn decode_reference(
        &self,
        net: &Network,
        advice: &AdviceMap,
    ) -> Result<(Orientation, RoundStats), DecodeError> {
        if advice.n() != net.graph().n() {
            return Err(DecodeError::Inconsistent(
                "advice covers a different node count".into(),
            ));
        }
        let advised = net.with_inputs(advice.strings());
        let radius = self.decode_radius();
        let (claims, stats) =
            lad_runtime::run_local_fallible(&advised, |ctx| self.decode_view(&ctx.ball(radius)))?;
        let orientation = aggregate_claims(net, &claims)?;
        Ok((orientation, stats))
    }
}

// ---------------------------------------------------------------------------
// Decoding (runs inside a ball view).
// ---------------------------------------------------------------------------

/// Outcome of walking a trail inside a ball view.
enum WalkOutcome {
    /// The walk returned to its starting directed edge; the trail is a
    /// fully visible cycle.
    Closure,
    /// The trail ended (unpaired edge) at the last visited node.
    End,
    /// An anchor determined the orientation: `true` = the chosen trail
    /// orientation points along the walk direction.
    Anchor(bool),
    /// The budget ran out without resolution.
    Exhausted,
}

struct WalkResult {
    /// Arrived nodes in order (excluding the start node).
    nodes: Vec<NodeId>,
    outcome: WalkOutcome,
}

/// Checks the advice of local node `w` for an anchor record covering
/// `slot`. Returns `Err` on malformed advice.
fn anchor_at(
    ball: &lad_runtime::Ball<BitString>,
    w: NodeId,
    slot: usize,
) -> Result<Option<AnchorRecord>, DecodeError> {
    let bits = ball.input(w);
    let records = decode_records(bits, ball.global_degree(w))
        .ok_or_else(|| DecodeError::malformed(ball.global_node(w), "unparseable anchor records"))?;
    Ok(records.into_iter().find(|r| r.slot == slot))
}

/// Walks from `start` leaving via `first_edge`, for at most `budget` steps,
/// checking each arrived node for an anchor covering the traversed slot.
fn walk(
    ball: &lad_runtime::Ball<BitString>,
    start: NodeId,
    first_edge: EdgeId,
    budget: usize,
) -> Result<WalkResult, DecodeError> {
    let g = ball.graph();
    let uids = ball.uids();
    let mut nodes = Vec::new();
    let mut v = start;
    let mut e = first_edge;
    for _ in 0..budget {
        let u = g.other_endpoint(e, v);
        nodes.push(u);
        if !ball.knows_all_edges_of(u) {
            // Should not happen within the budget; treat as exhaustion.
            return Ok(WalkResult {
                nodes,
                outcome: WalkOutcome::Exhausted,
            });
        }
        // Anchor check at the arrived node.
        if let Some(s) = slot_of(g, uids, u, e) {
            if let Some(rec) = anchor_at(ball, u, s)? {
                let (first, _) = slot_edges(g, uids, u, s);
                // The walk enters u via e; the record says the chosen
                // orientation enters via `first`.
                let along_walk = (e == first) == rec.enters_first;
                return Ok(WalkResult {
                    nodes,
                    outcome: WalkOutcome::Anchor(along_walk),
                });
            }
        }
        match pair_partner(g, uids, u, e) {
            None => {
                return Ok(WalkResult {
                    nodes,
                    outcome: WalkOutcome::End,
                })
            }
            Some(next) => {
                if next == first_edge && u == start {
                    return Ok(WalkResult {
                        nodes,
                        outcome: WalkOutcome::Closure,
                    });
                }
                v = u;
                e = next;
            }
        }
    }
    Ok(WalkResult {
        nodes,
        outcome: WalkOutcome::Exhausted,
    })
}

/// The center's trail decisions, indexed by slot position rather than by
/// edge identity.
///
/// Slots are positions in the center's incident-edge list sorted by
/// neighbor UID, so they are preserved by any isomorphism that preserves
/// relative UID order — exactly what equality of [`lad_runtime::CanonicalKey`]s
/// guarantees. That makes this struct (unlike raw uid claims) shareable
/// across every node of a canonical class: the memoized decode path caches
/// it per class and re-binds slots to concrete edges per node on the real
/// graph.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct SlotDirections {
    /// For each paired slot `s`: is the trail "forward at this slot"
    /// (entering via the first edge of the slot, exiting via the second)?
    forward: Vec<bool>,
    /// Odd degree only: does the unpaired edge's orientation point away
    /// from the center?
    endpoint_away: Option<bool>,
}

impl SlotDirections {
    /// Serializes to self-delimiting words (the persistent class store's
    /// currency): `[slot count, forward bits…, 0 | 1 away | 2 toward]`.
    pub(crate) fn to_words(&self) -> Vec<u64> {
        let mut words = Vec::with_capacity(self.forward.len() + 2);
        words.push(self.forward.len() as u64);
        words.extend(self.forward.iter().map(|&b| u64::from(b)));
        words.push(match self.endpoint_away {
            None => 0,
            Some(true) => 1,
            Some(false) => 2,
        });
        words
    }

    /// Parses words written by [`SlotDirections::to_words`]; `None` on
    /// truncated or malformed input (a stale or foreign dictionary entry).
    pub(crate) fn from_words(words: &[u64]) -> Option<SlotDirections> {
        let mut it = words.iter();
        let count = usize::try_from(*it.next()?).ok()?;
        if count > it.len() {
            return None;
        }
        let forward: Vec<bool> = (&mut it)
            .take(count)
            .map(|&w| match w {
                0 => Some(false),
                1 => Some(true),
                _ => None,
            })
            .collect::<Option<_>>()?;
        let endpoint_away = match *it.next()? {
            0 => None,
            1 => Some(true),
            2 => Some(false),
            _ => return None,
        };
        if it.next().is_some() {
            return None;
        }
        Some(SlotDirections {
            forward,
            endpoint_away,
        })
    }
}

/// Computes the center's trail decisions. This is the order-invariant core
/// of the decoder: identifiers are consumed exclusively through order
/// comparisons (slot sorting, pairing, canonical direction rules), so the
/// result is a function of the canonical advice-labeled view.
pub(crate) fn slot_directions(
    ball: &lad_runtime::Ball<BitString>,
    budget: usize,
) -> Result<SlotDirections, DecodeError> {
    let g = ball.graph();
    let uids = ball.uids();
    let c = ball.center();
    let me = ball.global_node(c);
    if !ball.knows_all_edges_of(c) && ball.global_degree(c) > 0 {
        return Err(DecodeError::malformed(me, "view too small for own degree"));
    }
    let mut forward = Vec::with_capacity(slot_pairs(g, c));
    for s in 0..slot_pairs(g, c) {
        let (p, q) = slot_edges(g, uids, c, s);
        // "Forward at this slot" = the trail enters via p and exits via q.
        forward.push(decide_slot(ball, budget, c, s, p, q)?);
    }
    let endpoint_away = if g.degree(c) % 2 == 1 {
        let order = sorted_incident_by_uid(g, uids, c);
        let e = *order.last().expect("odd degree implies an edge");
        // `true` = orientation points away from the center.
        Some(decide_from_endpoint(ball, budget, c, e)?)
    } else {
        None
    };
    Ok(SlotDirections {
        forward,
        endpoint_away,
    })
}

/// Decodes the orientation of every edge incident to the center of `ball`.
/// Returns `(ball-local edge id, oriented out of the center?)` pairs;
/// [`BalancedOrientationSchema::decode_view`] converts them to uid pairs.
fn decode_at_node(
    ball: &lad_runtime::Ball<BitString>,
    budget: usize,
) -> Result<Vec<(EdgeId, bool)>, DecodeError> {
    let dirs = slot_directions(ball, budget)?;
    Ok(bind_slots(ball.graph(), ball.uids(), ball.center(), &dirs))
}

/// The serving bridge: re-binds a stored class verdict (serialized
/// [`SlotDirections`]) to the query ball's center and answers as
/// uid-claim words `[pair count, tail uid, head uid, …]` — the same
/// claims [`AdviceSchema::decode`] aggregates, so a served answer and a
/// live decode agree edge for edge.
///
/// # Errors
///
/// [`DecodeError::Inconsistent`] when the words do not parse as
/// [`SlotDirections`] or do not match the center's degree structure — a
/// stale or foreign dictionary entry must surface as a typed error, never
/// bind to the wrong edges.
pub(crate) fn bind_class_words(
    ball: &lad_runtime::Ball<BitString>,
    class_words: &[u64],
) -> Result<Vec<u64>, DecodeError> {
    let stale = |what: &str| {
        DecodeError::Inconsistent(format!(
            "stored balanced-orientation verdict {what} — stale or mismatched dictionary"
        ))
    };
    let dirs = SlotDirections::from_words(class_words).ok_or_else(|| stale("does not parse"))?;
    let g = ball.graph();
    let c = ball.center();
    if dirs.forward.len() != slot_pairs(g, c)
        || dirs.endpoint_away.is_some() != (g.degree(c) % 2 == 1)
    {
        return Err(stale("does not match the query center's degree"));
    }
    let uids = ball.uids();
    let bound = bind_slots(g, uids, c, &dirs);
    let mut words = Vec::with_capacity(1 + 2 * bound.len());
    words.push(bound.len() as u64);
    for (e, out_of_center) in bound {
        let u = g.other_endpoint(e, c);
        let (tail, head) = if out_of_center {
            (uids[c.index()], uids[u.index()])
        } else {
            (uids[u.index()], uids[c.index()])
        };
        words.push(tail);
        words.push(head);
    }
    Ok(words)
}

/// Re-binds slot-indexed decisions to concrete incident edges of `c` on
/// `g`: `(edge, oriented out of `c`?)` pairs. Works identically on a ball
/// graph and on the real network graph, because the slot structure is
/// derived from neighbor-UID order, which both agree on.
pub(crate) fn bind_slots(
    g: &Graph,
    uids: &[u64],
    c: NodeId,
    dirs: &SlotDirections,
) -> Vec<(EdgeId, bool)> {
    let mut out = Vec::with_capacity(g.degree(c));
    for (s, &fwd) in dirs.forward.iter().enumerate() {
        let (p, q) = slot_edges(g, uids, c, s);
        // If forward: p is incoming to the center, q outgoing.
        out.push((p, !fwd));
        out.push((q, fwd));
    }
    if let Some(away) = dirs.endpoint_away {
        let order = sorted_incident_by_uid(g, uids, c);
        let e = *order.last().expect("odd degree implies an edge");
        out.push((e, away));
    }
    out
}

/// Decides the orientation of the trail through slot `s` at the center:
/// returns whether the trail is oriented "forward at this slot" (entering
/// via `p`, exiting via `q`).
fn decide_slot(
    ball: &lad_runtime::Ball<BitString>,
    budget: usize,
    c: NodeId,
    s: usize,
    p: EdgeId,
    q: EdgeId,
) -> Result<bool, DecodeError> {
    let uids = ball.uids();
    let me = ball.global_node(c);
    // Own anchor record wins immediately.
    if let Some(rec) = anchor_at(ball, c, s)? {
        return Ok(rec.enters_first);
    }
    // Walk A: forward direction (leave via q). Walk B: backward (leave via p).
    let a = walk(ball, c, q, budget)?;
    let b = walk(ball, c, p, budget)?;
    let uid_of = |v: NodeId| uids[v.index()];
    match (&a.outcome, &b.outcome) {
        (WalkOutcome::Anchor(along), _) => Ok(*along),
        (_, WalkOutcome::Anchor(along)) => Ok(!*along),
        (WalkOutcome::Closure, _) => {
            // Full cycle: [c, a.nodes...] minus the final return to c.
            let mut seq: Vec<u64> = vec![uid_of(c)];
            seq.extend(a.nodes[..a.nodes.len() - 1].iter().map(|&v| uid_of(v)));
            match cycle_canonical_forward(&seq) {
                Some(fwd) => Ok(fwd),
                None => Err(DecodeError::malformed(
                    me,
                    "palindromic cycle without an anchor",
                )),
            }
        }
        (WalkOutcome::End, WalkOutcome::End) => {
            // Full open trail along the A direction.
            let mut seq: Vec<u64> = b.nodes.iter().rev().map(|&v| uid_of(v)).collect();
            seq.push(uid_of(c));
            seq.extend(a.nodes.iter().map(|&v| uid_of(v)));
            match open_canonical_forward(&seq) {
                Some(fwd) => Ok(fwd),
                None => Err(DecodeError::malformed(
                    me,
                    "palindromic trail without an anchor",
                )),
            }
        }
        _ => Err(DecodeError::malformed(
            me,
            "no anchor or trail end within the walk budget",
        )),
    }
}

/// Decides the orientation of the unpaired edge `e` at a trail endpoint:
/// returns whether the orientation points *away* from the center.
fn decide_from_endpoint(
    ball: &lad_runtime::Ball<BitString>,
    budget: usize,
    c: NodeId,
    e: EdgeId,
) -> Result<bool, DecodeError> {
    let uids = ball.uids();
    let me = ball.global_node(c);
    let a = walk(ball, c, e, budget)?;
    let uid_of = |v: NodeId| uids[v.index()];
    match a.outcome {
        WalkOutcome::Anchor(along) => Ok(along),
        WalkOutcome::End => {
            // Whole trail visible, center is one endpoint.
            let mut seq = vec![uid_of(c)];
            seq.extend(a.nodes.iter().map(|&v| uid_of(v)));
            match open_canonical_forward(&seq) {
                Some(fwd) => Ok(fwd),
                None => Err(DecodeError::malformed(
                    me,
                    "palindromic trail without an anchor",
                )),
            }
        }
        WalkOutcome::Closure => Err(DecodeError::malformed(
            me,
            "trail closed through an unpaired edge",
        )),
        WalkOutcome::Exhausted => Err(DecodeError::malformed(
            me,
            "no anchor or trail end within the walk budget",
        )),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lad_graph::{generators, IdAssignment};

    fn check(net: &Network, schema: BalancedOrientationSchema) -> (AdviceMap, RoundStats) {
        let advice = schema.encode(net).expect("encode");
        let (o, stats) = schema.decode(net, &advice).expect("decode");
        assert!(
            o.is_almost_balanced(net.graph()),
            "orientation not almost balanced"
        );
        (advice, stats)
    }

    #[test]
    fn short_cycle_needs_no_advice() {
        let net = Network::with_identity_ids(generators::cycle(10));
        let schema = BalancedOrientationSchema::default();
        let (advice, _) = check(&net, schema);
        assert_eq!(advice.total_bits(), 0);
    }

    #[test]
    fn long_cycle_uses_anchors_and_constant_rounds() {
        let net = Network::with_identity_ids(generators::cycle(300));
        let schema = BalancedOrientationSchema::default();
        let (advice, stats) = check(&net, schema);
        assert!(advice.total_bits() > 0);
        assert_eq!(stats.rounds(), schema.decode_radius());
        assert!(stats.rounds() < 30);
        // Advice is sparse: anchors every `spacing` positions, 2 bits each.
        assert!(advice.holders().count() <= 300 / schema.anchor_spacing + 2);
    }

    #[test]
    fn long_path_decodes() {
        let net = Network::with_identity_ids(generators::path(200));
        check(&net, BalancedOrientationSchema::default());
    }

    #[test]
    fn random_even_degree_fully_balanced() {
        for seed in 0..5 {
            let g = generators::random_even_degree(60, 8, 12, seed);
            let net = Network::with_identity_ids(g);
            let schema = BalancedOrientationSchema::default();
            let advice = schema.encode(&net).unwrap();
            let (o, _) = schema.decode(&net, &advice).unwrap();
            assert!(o.is_balanced(net.graph()));
        }
    }

    #[test]
    fn random_graphs_with_odd_degrees() {
        for seed in 0..8 {
            let g = generators::random_bounded_degree(80, 7, 160, seed);
            let net = Network::with_identity_ids(g);
            check(&net, BalancedOrientationSchema::default());
        }
    }

    #[test]
    fn random_uids_still_work() {
        for seed in 0..5 {
            let g = generators::random_bounded_degree(70, 6, 150, seed);
            let n = g.n();
            let net = Network::with_ids(g, IdAssignment::random_sparse(n, 10_000, seed + 77));
            check(&net, BalancedOrientationSchema::default());
        }
    }

    #[test]
    fn grids_and_tori() {
        let net = Network::with_identity_ids(generators::grid2d(12, 12, false));
        check(&net, BalancedOrientationSchema::default());
        let net = Network::with_identity_ids(generators::grid2d(9, 9, true));
        check(&net, BalancedOrientationSchema::default());
    }

    #[test]
    fn spacing_trades_bits_for_rounds() {
        let g = generators::cycle(400);
        let net = Network::with_identity_ids(g);
        let tight = BalancedOrientationSchema::new(4, 4);
        let loose = BalancedOrientationSchema::new(4, 50);
        let (a_tight, s_tight) = check(&net, tight);
        let (a_loose, s_loose) = check(&net, loose);
        assert!(a_tight.total_bits() > a_loose.total_bits());
        assert!(s_tight.rounds() < s_loose.rounds());
    }

    #[test]
    fn rounds_independent_of_n() {
        let schema = BalancedOrientationSchema::default();
        let mut rounds = Vec::new();
        for n in [50usize, 200, 800] {
            let net = Network::with_identity_ids(generators::cycle(n));
            let (_, stats) = check(&net, schema);
            rounds.push(stats.rounds());
        }
        assert_eq!(rounds[0], rounds[1]);
        assert_eq!(rounds[1], rounds[2]);
    }

    #[test]
    fn record_roundtrip() {
        let mut recs = vec![
            AnchorRecord {
                slot: 2,
                enters_first: true,
            },
            AnchorRecord {
                slot: 0,
                enters_first: false,
            },
        ];
        let bits = encode_records(&mut recs, 7); // 3 slots -> width 2
        let parsed = decode_records(&bits, 7).unwrap();
        assert_eq!(parsed.len(), 2);
        assert_eq!(parsed[0].slot, 0);
        assert!(!parsed[0].enters_first);
        assert_eq!(parsed[1].slot, 2);
        assert!(parsed[1].enters_first);
    }

    #[test]
    fn malformed_records_rejected() {
        // Wrong length.
        assert_eq!(decode_records(&BitString::parse("101"), 4), None);
        // Slot out of range: width for 2 slots is 1... craft degree 6
        // (3 slots, width 2): slot value 3 is out of range.
        let mut bits = BitString::new();
        bits.push_uint(3, 2);
        bits.push(true);
        assert_eq!(decode_records(&bits, 6), None);
        // Advice on a degree-1 node can't be orientation records.
        assert_eq!(decode_records(&BitString::parse("1"), 1), None);
    }

    #[test]
    fn tampered_advice_is_rejected_or_caught() {
        let net = Network::with_identity_ids(generators::cycle(100));
        let schema = BalancedOrientationSchema::default();
        let mut advice = schema.encode(&net).unwrap();
        // Flip a direction bit of the first holder: endpoints of edges
        // near the anchor now disagree with nodes using other anchors.
        let holder = advice.holders().next().unwrap();
        let old = advice.get(holder).clone();
        let flipped: BitString = old
            .iter()
            .enumerate()
            .map(|(i, b)| if i == old.len() - 1 { !b } else { b })
            .collect();
        advice.set(holder, flipped);
        match schema.decode(&net, &advice) {
            Err(_) => {}
            Ok((o, _)) => {
                // If it still decodes, the orientation must be detectably
                // wrong only if consistency was violated — on a single
                // cycle flipping one anchor *must* conflict with others.
                assert!(o.is_almost_balanced(net.graph()));
                panic!("tampered advice went unnoticed");
            }
        }
    }

    #[test]
    fn booth_matches_naive_min_rotation() {
        use rand::Rng;
        use rand_chacha::rand_core::SeedableRng;
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(11);
        for _ in 0..200 {
            let k = rng.random_range(1..20usize);
            let seq: Vec<u64> = (0..k).map(|_| rng.random_range(0..5u64)).collect();
            let naive = (0..k)
                .map(|s| (0..k).map(|i| seq[(s + i) % k]).collect::<Vec<u64>>())
                .min()
                .unwrap();
            assert_eq!(min_rotation(&seq), naive, "seq {seq:?}");
        }
    }

    #[test]
    fn canonical_rules() {
        assert_eq!(open_canonical_forward(&[1, 2, 3]), Some(true));
        assert_eq!(open_canonical_forward(&[3, 2, 1]), Some(false));
        assert_eq!(open_canonical_forward(&[2, 1, 2]), None);
        assert_eq!(cycle_canonical_forward(&[1, 2, 3]), Some(true));
        assert_eq!(cycle_canonical_forward(&[1, 3, 2]), Some(false));
        // A 2-rotation-symmetric palindrome ties.
        assert_eq!(cycle_canonical_forward(&[1, 2, 1, 2]), None);
    }

    #[test]
    fn star_graph_paths() {
        // A star with odd center degree: trails are paths through the hub.
        let net = Network::with_identity_ids(generators::star(5));
        check(&net, BalancedOrientationSchema::default());
    }

    #[test]
    fn complete_graph() {
        let net = Network::with_identity_ids(generators::complete(7));
        check(&net, BalancedOrientationSchema::default());
    }

    #[test]
    fn disconnected_components() {
        let g = generators::disjoint_union(&[
            generators::cycle(40),
            generators::path(33),
            generators::complete(5),
        ]);
        let net = Network::with_identity_ids(g);
        check(&net, BalancedOrientationSchema::new(8, 6));
    }
}
