//! Incremental encode/decode for the balanced-orientation schema under
//! edge churn.
//!
//! A [`BalancedChurnSession`] holds a graph, the schema's advice, and the
//! decoded orientation, and repairs all three **locally** when edges are
//! inserted or removed — producing state bit-identical to throwing
//! everything away and re-running [`AdviceSchema::encode`](crate::schema::AdviceSchema::encode) /
//! [`BalancedOrientationSchema::decode_view`] on the mutated graph (the
//! churn differential harness in `tests/churn_pipeline.rs` pins this).
//!
//! # Why the balanced schema repairs locally
//!
//! The encoder's unit of work is an Euler-partition *trail*: the pairing
//! of incident edges at each node is a pure function of that node's
//! uid-sorted incident edge list, so an edit to edge `{u, v}` perturbs
//! pairings only at `u` and `v`. Every trail avoiding the touched nodes
//! survives the edit verbatim — same edges, same pairings, same slots —
//! and [`trail_records`] is a pure, enumeration-free function of a trail's
//! structure, so a surviving trail re-encodes bit-identically. Repair
//! therefore reduces to a splice: drop the anchor records of trails
//! through touched nodes (in the *old* graph), re-encode the trails
//! through touched nodes (in the *new* graph), and rewrite advice only
//! for nodes whose record set was disturbed.
//!
//! Affected trails are found by **walk reconstruction**: from each touched
//! node, follow [`pair_partner`] chains outward through every slot (plus
//! the unpaired edge at odd-degree nodes) until the trail closes or ends.
//! This is the same walk the decoder performs, so it costs O(trail length)
//! per trail, not a ball-growth blowup.
//!
//! Decode repair is trail-local too: a decoder walk never leaves the
//! walker's own trails (it follows pairing chains), and anchor lookups
//! read only slot records of the trail being walked, so a node on no
//! affected trail provably reproduces its old claims. The dirty set for
//! re-decoding is the node set of affected trails (old ∪ new), not a
//! radius-`T` ball around the edit.
//!
//! # Fallback for the other schemas
//!
//! This locality is a property of the balanced schema, not of advice
//! schemas in general. The cluster-coloring and Δ-coloring pipelines
//! ([`crate::cluster_coloring`], [`crate::delta_coloring`]) encode
//! against a global BFS cluster partition whose boundaries can shift an
//! unbounded distance under a single edit (a deleted bridge re-seats every
//! downstream cluster), and the sub-exponential-growth LCL schema
//! ([`crate::lcl_subexp`]) bakes a global search order into each label.
//! For those schemas the supported churn strategy is **regional
//! re-encode**: re-run the encoder on the mutated graph (cheap relative to
//! decode, since encoders are centralized and linear-ish), reusing
//! [`lad_runtime::ChurnMemoLocal`] on the decode side so that only nodes
//! whose advice-labeled views actually changed are re-decoded. No
//! incremental *encoder* is offered for them here, deliberately: an
//! edit's encoder-side influence region is unbounded, so any "local"
//! repair would be wrong on adversarial instances.

use crate::advice::AdviceMap;
use crate::balanced::{
    aggregate_claims, encode_records, trail_records, trail_token, AnchorRecord,
    BalancedOrientationSchema, TrailToken,
};
use crate::bits::BitString;
use crate::error::DecodeError;
use lad_graph::orientation::{pair_partner, slot_edges, slot_pairs, sorted_incident_by_uid};
use lad_graph::{EdgeId, Edit, Graph, IdAssignment, MutableGraph, NodeId, Orientation, Trail};
use lad_runtime::{Ball, Network, Run};
use std::collections::{BTreeMap, BTreeSet};

/// What one [`BalancedChurnSession::apply`] call did.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BalancedRepairReport {
    /// Edits that changed the graph.
    pub applied: usize,
    /// No-op edits (inserting a present edge, removing an absent one).
    pub skipped: usize,
    /// Trails through touched nodes in the pre-edit graph whose records
    /// were dropped.
    pub trails_dropped: usize,
    /// Trails through touched nodes in the post-edit graph that were
    /// re-encoded.
    pub trails_added: usize,
    /// Nodes whose advice string was re-serialized.
    pub advice_rewritten: usize,
    /// Nodes re-decoded (nodes of affected trails plus touched nodes).
    pub redecoded: usize,
    /// Re-decoded nodes whose per-edge claims actually changed.
    pub claims_changed: usize,
}

/// Follows pairing chains from `start`, leaving via `first`.
///
/// Returns the nodes arrived at and edges traversed, in order, plus
/// whether the walk closed (returned to `start` about to re-traverse
/// `first`). For a closed walk the last node equals `start`.
fn walk_from(
    g: &Graph,
    uids: &[u64],
    start: NodeId,
    first: EdgeId,
) -> (Vec<NodeId>, Vec<EdgeId>, bool) {
    let mut nodes = Vec::new();
    let mut edges = Vec::new();
    let mut v = start;
    let mut e = first;
    loop {
        let u = g.other_endpoint(e, v);
        nodes.push(u);
        edges.push(e);
        assert!(edges.len() <= g.m(), "pairing walk failed to terminate");
        match pair_partner(g, uids, u, e) {
            None => return (nodes, edges, false),
            Some(next) => {
                if u == start && next == first {
                    return (nodes, edges, true);
                }
                v = u;
                e = next;
            }
        }
    }
}

/// Reconstructs the full trail through slot `(p, q)` at `v` by walking
/// outward in both directions.
fn trail_via_slot(g: &Graph, uids: &[u64], v: NodeId, p: EdgeId, q: EdgeId) -> Trail {
    let (a_nodes, a_edges, closed) = walk_from(g, uids, v, q);
    if closed {
        let mut nodes = Vec::with_capacity(a_nodes.len() + 1);
        nodes.push(v);
        nodes.extend(a_nodes);
        return Trail {
            nodes,
            edges: a_edges,
            closed: true,
        };
    }
    let (b_nodes, b_edges, b_closed) = walk_from(g, uids, v, p);
    assert!(!b_closed, "one side of an open trail closed");
    let mut nodes: Vec<NodeId> = b_nodes.into_iter().rev().collect();
    nodes.push(v);
    nodes.extend(a_nodes);
    let mut edges: Vec<EdgeId> = b_edges.into_iter().rev().collect();
    edges.extend(a_edges);
    Trail {
        nodes,
        edges,
        closed: false,
    }
}

/// Reconstructs the open trail whose endpoint is `v`, leaving via the
/// unpaired edge `e`.
fn trail_via_end(g: &Graph, uids: &[u64], v: NodeId, e: EdgeId) -> Trail {
    let (a_nodes, a_edges, closed) = walk_from(g, uids, v, e);
    assert!(!closed, "walk through an unpaired edge closed");
    let mut nodes = Vec::with_capacity(a_nodes.len() + 1);
    nodes.push(v);
    nodes.extend(a_nodes);
    Trail {
        nodes,
        edges: a_edges,
        closed: false,
    }
}

/// Every trail of `g`'s Euler partition passing through a touched node,
/// keyed by [`TrailToken`] (which also dedupes multiple discoveries of one
/// trail from different touched nodes or slots).
fn affected_trails(g: &Graph, uids: &[u64], touched: &[NodeId]) -> BTreeMap<TrailToken, Trail> {
    let mut out = BTreeMap::new();
    for &v in touched {
        for s in 0..slot_pairs(g, v) {
            let (p, q) = slot_edges(g, uids, v, s);
            let trail = trail_via_slot(g, uids, v, p, q);
            out.entry(trail_token(g, uids, &trail)).or_insert(trail);
        }
        if g.degree(v) % 2 == 1 {
            let order = sorted_incident_by_uid(g, uids, v);
            let e = *order.last().expect("odd degree implies an incident edge");
            let trail = trail_via_end(g, uids, v, e);
            out.entry(trail_token(g, uids, &trail)).or_insert(trail);
        }
    }
    out
}

/// A long-lived balanced-orientation instance under edge churn: graph,
/// advice, per-edge claims, and the aggregated [`Orientation`], all
/// repaired locally per edit batch. See the module docs for the locality
/// argument; `tests/churn_pipeline.rs` pins bit-identity against
/// from-scratch encode + decode after every batch.
pub struct BalancedChurnSession {
    schema: BalancedOrientationSchema,
    mg: MutableGraph,
    ids: IdAssignment,
    uids: Vec<u64>,
    net: Network,
    /// Per node: the anchor records it holds, each tagged with the token
    /// of the trail that placed it.
    records: Vec<Vec<(TrailToken, AnchorRecord)>>,
    advice: AdviceMap,
    claims: Vec<Vec<(u64, u64)>>,
    orientation: Orientation,
    poisoned: bool,
}

impl BalancedChurnSession {
    /// Encodes and decodes `net` from scratch, producing the session's
    /// initial state. The advice is bit-identical to
    /// [`AdviceSchema::encode`]'s.
    ///
    /// [`AdviceSchema::encode`]: crate::schema::AdviceSchema::encode
    pub fn new(net: Network, schema: BalancedOrientationSchema) -> Result<Self, DecodeError> {
        let g = net.graph().clone();
        let uids = net.uids().to_vec();
        let n = g.n();
        let ep = lad_graph::EulerPartition::new(&g, &uids);
        let mut records: Vec<Vec<(TrailToken, AnchorRecord)>> = vec![Vec::new(); n];
        for trail in ep.trails() {
            let token = trail_token(&g, &uids, trail);
            for (w, rec) in trail_records(
                &g,
                &uids,
                trail,
                schema.short_threshold,
                schema.anchor_spacing,
            ) {
                records[w.index()].push((token, rec));
            }
        }
        let mut advice = AdviceMap::empty(n);
        for v in g.nodes() {
            if !records[v.index()].is_empty() {
                let mut rs: Vec<AnchorRecord> =
                    records[v.index()].iter().map(|&(_, r)| r).collect();
                advice.set(v, encode_records(&mut rs, g.degree(v)));
            }
        }
        let advised = net.with_inputs(advice.strings());
        let radius = schema.decode_radius();
        let nodes: Vec<NodeId> = g.nodes().collect();
        let results = Run::default().map(&nodes, |_, &v| {
            schema.decode_view(&Ball::collect(&advised, v, radius))
        });
        let mut claims = Vec::with_capacity(n);
        for r in results {
            claims.push(r?);
        }
        let orientation = aggregate_claims(&net, &claims)?;
        let ids = net.ids().clone();
        Ok(BalancedChurnSession {
            schema,
            mg: MutableGraph::new(g),
            ids,
            uids,
            net,
            records,
            advice,
            claims,
            orientation,
            poisoned: false,
        })
    }

    /// Applies an edit batch and repairs advice, claims, and orientation
    /// locally.
    ///
    /// On error (a decode or aggregation failure, which on well-formed
    /// state indicates a repair bug) the session is poisoned and must be
    /// discarded.
    ///
    /// # Panics
    ///
    /// Panics if the session is poisoned or an edit is a self-loop.
    pub fn apply(&mut self, edits: &[Edit]) -> Result<BalancedRepairReport, DecodeError> {
        assert!(!self.poisoned, "churn session is poisoned");
        let edit_report = self.mg.apply(edits);
        let mut report = BalancedRepairReport {
            applied: edit_report.applied,
            skipped: edit_report.skipped,
            ..Default::default()
        };
        if edit_report.touched.is_empty() {
            self.mg.clear_dirty();
            return Ok(report);
        }
        let old_aff = affected_trails(self.mg.base(), &self.uids, &edit_report.touched);
        let new_aff = affected_trails(self.mg.graph(), &self.uids, &edit_report.touched);
        report.trails_dropped = old_aff.len();
        report.trails_added = new_aff.len();

        // Splice the per-node records: drop every record owned by an
        // affected old trail (such records live only on that trail's
        // nodes), then re-encode the affected new trails. Nodes of all
        // affected trails — plus the touched nodes themselves, which may
        // now be isolated — form the decode-dirty set.
        let removed: BTreeSet<TrailToken> = old_aff.keys().copied().collect();
        let mut rewrite: BTreeSet<NodeId> = BTreeSet::new();
        let mut dirty: BTreeSet<NodeId> = edit_report.touched.iter().copied().collect();
        for trail in old_aff.values() {
            for &w in &trail.nodes {
                dirty.insert(w);
                let recs = &mut self.records[w.index()];
                let before = recs.len();
                recs.retain(|(t, _)| !removed.contains(t));
                if recs.len() != before {
                    rewrite.insert(w);
                }
            }
        }
        let g = self.mg.graph();
        for (token, trail) in &new_aff {
            for &w in &trail.nodes {
                dirty.insert(w);
            }
            for (w, rec) in trail_records(
                g,
                &self.uids,
                trail,
                self.schema.short_threshold,
                self.schema.anchor_spacing,
            ) {
                self.records[w.index()].push((*token, rec));
                rewrite.insert(w);
            }
        }
        for &w in &rewrite {
            let mut rs: Vec<AnchorRecord> =
                self.records[w.index()].iter().map(|&(_, r)| r).collect();
            let bits = if rs.is_empty() {
                BitString::new()
            } else {
                encode_records(&mut rs, g.degree(w))
            };
            self.advice.set(w, bits);
        }
        report.advice_rewritten = rewrite.len();

        // Re-decode the dirty set on the repaired instance; everything
        // else provably reproduces its old claims (module docs).
        self.net = Network::new(g.clone(), self.ids.clone(), vec![(); g.n()]);
        let advised = self.net.with_inputs(self.advice.strings());
        let radius = self.schema.decode_radius();
        let schema = &self.schema;
        let dirty_vec: Vec<NodeId> = dirty.into_iter().collect();
        let results = Run::default().map(&dirty_vec, |_, &v| {
            schema.decode_view(&Ball::collect(&advised, v, radius))
        });
        report.redecoded = dirty_vec.len();
        for (&v, r) in dirty_vec.iter().zip(results) {
            match r {
                Ok(c) => {
                    if c != self.claims[v.index()] {
                        report.claims_changed += 1;
                    }
                    self.claims[v.index()] = c;
                }
                Err(e) => {
                    self.poisoned = true;
                    return Err(e);
                }
            }
        }
        match aggregate_claims(&self.net, &self.claims) {
            Ok(o) => self.orientation = o,
            Err(e) => {
                self.poisoned = true;
                return Err(e);
            }
        }
        self.mg.clear_dirty();
        Ok(report)
    }

    /// The current graph.
    pub fn graph(&self) -> &Graph {
        self.mg.graph()
    }

    /// The current network (graph + ids).
    pub fn network(&self) -> &Network {
        &self.net
    }

    /// The schema this session encodes for.
    pub fn schema(&self) -> &BalancedOrientationSchema {
        &self.schema
    }

    /// The current advice, bit-identical to a from-scratch encode of the
    /// current graph.
    pub fn advice(&self) -> &AdviceMap {
        &self.advice
    }

    /// The current orientation.
    pub fn orientation(&self) -> &Orientation {
        &self.orientation
    }

    /// The current per-node directed uid claims.
    pub fn claims(&self) -> &[Vec<(u64, u64)>] {
        &self.claims
    }

    /// True once an [`Self::apply`] call failed; the session must then be
    /// discarded.
    pub fn is_poisoned(&self) -> bool {
        self.poisoned
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::AdviceSchema;
    use lad_graph::generators;

    fn session(g: Graph) -> BalancedChurnSession {
        let net = Network::with_identity_ids(g);
        BalancedChurnSession::new(net, BalancedOrientationSchema::new(4, 3)).unwrap()
    }

    fn check_against_scratch(s: &BalancedChurnSession) {
        let schema = *s.schema();
        let net = Network::new(
            s.graph().clone(),
            s.network().ids().clone(),
            vec![(); s.graph().n()],
        );
        let fresh = schema.encode(&net).unwrap();
        assert_eq!(
            s.advice().strings(),
            fresh.strings(),
            "repaired advice differs from a from-scratch encode"
        );
        let (o, _) = schema.decode(&net, &fresh).unwrap();
        assert_eq!(s.orientation(), &o, "repaired orientation differs");
    }

    #[test]
    fn initial_state_matches_schema_encode() {
        let s = session(generators::cycle(30));
        check_against_scratch(&s);
    }

    #[test]
    fn insert_then_remove_round_trips() {
        let mut s = session(generators::cycle(30));
        let r = s
            .apply(&[Edit::Insert(NodeId::from_index(0), NodeId::from_index(15))])
            .unwrap();
        assert_eq!(r.applied, 1);
        assert!(r.redecoded > 0);
        check_against_scratch(&s);
        let r = s
            .apply(&[Edit::Remove(NodeId::from_index(0), NodeId::from_index(15))])
            .unwrap();
        assert_eq!(r.applied, 1);
        check_against_scratch(&s);
    }

    #[test]
    fn batch_of_edits_on_grid() {
        let mut s = session(generators::grid2d(6, 5, false));
        let edits = vec![
            Edit::Remove(NodeId::from_index(0), NodeId::from_index(1)),
            Edit::Insert(NodeId::from_index(0), NodeId::from_index(7)),
            Edit::Remove(NodeId::from_index(12), NodeId::from_index(13)),
        ];
        let r = s.apply(&edits).unwrap();
        assert_eq!(r.applied, 3);
        assert!(r.trails_dropped > 0 && r.trails_added > 0);
        check_against_scratch(&s);
    }

    #[test]
    fn noop_batch_repairs_nothing() {
        let mut s = session(generators::cycle(20));
        let r = s
            .apply(&[Edit::Insert(NodeId::from_index(0), NodeId::from_index(1))])
            .unwrap();
        assert_eq!(
            r,
            BalancedRepairReport {
                skipped: 1,
                ..Default::default()
            }
        );
        check_against_scratch(&s);
    }

    #[test]
    fn long_cycle_repair_is_local() {
        // Deleting one edge of a long cycle must not re-decode the whole
        // graph... it must: the cycle IS one trail. Use two disjoint
        // cycles instead: churn on one leaves the other untouched.
        let mut edges = Vec::new();
        for i in 0..40u32 {
            edges.push((NodeId(i), NodeId((i + 1) % 40)));
        }
        for i in 0..40u32 {
            edges.push((NodeId(40 + i), NodeId(40 + (i + 1) % 40)));
        }
        let mut b = lad_graph::GraphBuilder::new(80);
        for (u, v) in edges {
            b.add_edge(u, v);
        }
        let mut s = session(b.build());
        let r = s
            .apply(&[Edit::Remove(NodeId::from_index(3), NodeId::from_index(4))])
            .unwrap();
        // Only the first cycle's trail is affected: at most its 40 nodes
        // get re-decoded, never the second cycle's.
        assert!(r.redecoded <= 41, "repair leaked: {r:?}");
        check_against_scratch(&s);
    }
}
