//! Edge orientations, balance checks, and the Euler partition into trails
//! that drives the paper's balanced-orientation schema (Section 5).
//!
//! The paper builds a virtual graph `G'` in which each node of degree `2d`
//! is split into `d` copies, each incident to a consecutive pair of its
//! edges "taken in some arbitrary fixed order (e.g., by sorting the
//! neighbors of `v` by their IDs)". The result is a disjoint union of
//! cycles (and paths once odd degrees are allowed). We realize `G'`
//! directly as an *Euler partition*: a pairing of the incident edges at
//! every node, plus the trails (closed or open) this pairing induces.
//!
//! Everything here is **purely local**: the pairing at a node depends only
//! on the node's incident edges sorted by the unique identifiers of its
//! neighbors. A LOCAL decoder with a radius-`r` view can therefore walk a
//! trail for up to `r` hops by the same rule the centralized encoder
//! follows ([`next_along_trail`]); `lad-core`'s balanced decoder replays it
//! over its view's neighbour lists.

use crate::graph::{EdgeId, Graph, NodeId};

/// An orientation of every edge of a graph.
///
/// Edge `e = {u, v}` with `u < v` (by node index) is stored as a single bit:
/// `true` means `u → v`.
///
/// # Example
///
/// ```
/// use lad_graph::{generators, Orientation};
/// let g = generators::cycle(4);
/// let o = Orientation::all_toward_higher(&g);
/// assert_eq!(o.out_degree(&g, lad_graph::NodeId(0)), 2);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Orientation {
    toward_higher: Vec<bool>,
}

impl Orientation {
    /// An orientation with every edge pointing from its lower-index to its
    /// higher-index endpoint.
    pub fn all_toward_higher(g: &Graph) -> Self {
        Orientation {
            toward_higher: vec![true; g.m()],
        }
    }

    /// An unoriented placeholder of the right size (all `lower → higher`);
    /// use [`Orientation::set`] to fill it in.
    pub fn new(m: usize) -> Self {
        Orientation {
            toward_higher: vec![true; m],
        }
    }

    /// Number of edges covered.
    pub fn m(&self) -> usize {
        self.toward_higher.len()
    }

    /// Orients edge `e` as `from → to`.
    ///
    /// # Panics
    ///
    /// Panics if `(from, to)` are not the endpoints of `e`.
    pub fn set(&mut self, g: &Graph, e: EdgeId, from: NodeId, to: NodeId) {
        let (lo, hi) = g.endpoints(e);
        if (from, to) == (lo, hi) {
            self.toward_higher[e.index()] = true;
        } else if (from, to) == (hi, lo) {
            self.toward_higher[e.index()] = false;
        } else {
            panic!("({from:?}, {to:?}) are not the endpoints of {e:?}");
        }
    }

    /// The head (target) of edge `e`.
    pub fn head(&self, g: &Graph, e: EdgeId) -> NodeId {
        let (lo, hi) = g.endpoints(e);
        if self.toward_higher[e.index()] {
            hi
        } else {
            lo
        }
    }

    /// The tail (source) of edge `e`.
    pub fn tail(&self, g: &Graph, e: EdgeId) -> NodeId {
        let (lo, hi) = g.endpoints(e);
        if self.toward_higher[e.index()] {
            lo
        } else {
            hi
        }
    }

    /// Whether `e` is oriented out of `v`.
    ///
    /// # Panics
    ///
    /// Panics if `v` is not an endpoint of `e`.
    pub fn is_outgoing(&self, g: &Graph, e: EdgeId, v: NodeId) -> bool {
        let t = self.tail(g, e);
        let h = self.head(g, e);
        assert!(v == t || v == h, "{v:?} not an endpoint of {e:?}");
        v == t
    }

    /// Out-degree of `v` under this orientation.
    pub fn out_degree(&self, g: &Graph, v: NodeId) -> usize {
        self.outgoing_edges_iter(g, v).count()
    }

    /// In-degree of `v` under this orientation.
    pub fn in_degree(&self, g: &Graph, v: NodeId) -> usize {
        g.degree(v) - self.out_degree(g, v)
    }

    /// Iterates the outgoing edges of `v` in `v`'s incident-edge order,
    /// without allocating. [`outgoing_edges`](Self::outgoing_edges) is the
    /// collecting convenience wrapper.
    pub fn outgoing_edges_iter<'a>(
        &'a self,
        g: &'a Graph,
        v: NodeId,
    ) -> impl Iterator<Item = EdgeId> + 'a {
        g.incident_edges(v)
            .iter()
            .copied()
            .filter(move |&e| self.is_outgoing(g, e, v))
    }

    /// The outgoing edges of `v`, in `v`'s incident-edge order.
    pub fn outgoing_edges(&self, g: &Graph, v: NodeId) -> Vec<EdgeId> {
        self.outgoing_edges_iter(g, v).collect()
    }

    /// Whether every node satisfies `|indeg − outdeg| ≤ 1`
    /// (the paper's *almost-balanced* orientation).
    pub fn is_almost_balanced(&self, g: &Graph) -> bool {
        g.nodes().all(|v| {
            let out = self.out_degree(g, v);
            let inn = g.degree(v) - out;
            out.abs_diff(inn) <= 1
        })
    }

    /// Whether every node satisfies `indeg == outdeg` (requires all degrees
    /// even).
    pub fn is_balanced(&self, g: &Graph) -> bool {
        g.nodes().all(|v| {
            let out = self.out_degree(g, v);
            2 * out == g.degree(v)
        })
    }
}

/// A trail of the Euler partition: a sequence of edges where consecutive
/// edges share an endpoint, each node-visit consuming one slot pair.
///
/// `nodes.len() == edges.len() + 1`; for a closed trail
/// `nodes[0] == nodes[last]`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Trail {
    /// Visited nodes in order (first equals last iff `closed`).
    pub nodes: Vec<NodeId>,
    /// Traversed edges in order (`edges[i] = {nodes[i], nodes[i+1]}`).
    pub edges: Vec<EdgeId>,
    /// Whether the trail is a closed trail (cycle in `G'`).
    pub closed: bool,
}

impl Trail {
    /// Number of edges in the trail.
    pub fn len(&self) -> usize {
        self.edges.len()
    }

    /// Whether the trail has no edges.
    pub fn is_empty(&self) -> bool {
        self.edges.is_empty()
    }
}

/// The incident edges of `v` sorted by the unique identifier of the other
/// endpoint — the canonical local edge order every schema uses.
///
/// `uids[u.index()]` must be the unique identifier of node `u`.
pub fn sorted_incident_by_uid(g: &Graph, uids: &[u64], v: NodeId) -> Vec<EdgeId> {
    let mut es: Vec<EdgeId> = g.incident_edges(v).to_vec();
    es.sort_by_key(|&e| uids[g.other_endpoint(e, v).index()]);
    es
}

/// The slot pairing at `v`: incident edges (in UID order) are paired
/// `(0,1), (2,3), …`; for odd degree the last edge is unpaired.
///
/// Returns the partner edge of `e` at `v`, or `None` if `e` occupies the
/// unpaired slot.
///
/// # Panics
///
/// Panics if `v` is not an endpoint of `e`.
pub fn pair_partner(g: &Graph, uids: &[u64], v: NodeId, e: EdgeId) -> Option<EdgeId> {
    let order = sorted_incident_by_uid(g, uids, v);
    let slot = order
        .iter()
        .position(|&x| x == e)
        .expect("edge not incident to node");
    let paired = order.len() - (order.len() % 2);
    if slot >= paired {
        None
    } else {
        Some(order[slot ^ 1])
    }
}

/// One step of a trail walk: having traversed edge `via` *into* node
/// `arrived`, returns the edge the trail continues with (the pair partner
/// of `via` at `arrived`), or `None` if the trail ends there.
pub fn next_along_trail(g: &Graph, uids: &[u64], arrived: NodeId, via: EdgeId) -> Option<EdgeId> {
    pair_partner(g, uids, arrived, via)
}

/// The number of slot pairs at `v` (`⌊deg/2⌋`); slot `s` couples the
/// `2s`-th and `2s+1`-th incident edges in UID order.
pub fn slot_pairs(g: &Graph, v: NodeId) -> usize {
    g.degree(v) / 2
}

/// The pair of edges forming slot `s` at `v`.
///
/// # Panics
///
/// Panics if `s ≥ slot_pairs(g, v)`.
pub fn slot_edges(g: &Graph, uids: &[u64], v: NodeId, s: usize) -> (EdgeId, EdgeId) {
    let order = sorted_incident_by_uid(g, uids, v);
    assert!(2 * s + 1 < order.len(), "slot {s} out of range at {v:?}");
    (order[2 * s], order[2 * s + 1])
}

/// The slot index at `v` containing edge `e`, or `None` if `e` is `v`'s
/// unpaired edge.
pub fn slot_of(g: &Graph, uids: &[u64], v: NodeId, e: EdgeId) -> Option<usize> {
    let order = sorted_incident_by_uid(g, uids, v);
    let pos = order
        .iter()
        .position(|&x| x == e)
        .expect("edge not incident to node");
    let paired = order.len() - (order.len() % 2);
    (pos < paired).then_some(pos / 2)
}

/// The Euler partition of a graph: the trails induced by the per-node UID
/// pairing. Every edge belongs to exactly one trail; every node is the
/// endpoint of at most one open trail (it has at most one unpaired slot).
///
/// Orienting every trail consistently yields an almost-balanced
/// orientation (Corollary 5.3 of the paper).
#[derive(Debug, Clone)]
pub struct EulerPartition {
    trails: Vec<Trail>,
    /// For each edge: (trail index, position within the trail).
    edge_location: Vec<(usize, usize)>,
}

impl EulerPartition {
    /// Computes the Euler partition of `g` under the given UID assignment.
    pub fn new(g: &Graph, uids: &[u64]) -> Self {
        assert_eq!(uids.len(), g.n(), "one uid per node required");
        let mut used = vec![false; g.m()];
        let mut trails = Vec::new();
        let mut edge_location = vec![(usize::MAX, usize::MAX); g.m()];

        let extract = |start_node: NodeId,
                       start_edge: EdgeId,
                       used: &mut Vec<bool>,
                       edge_location: &mut Vec<(usize, usize)>,
                       trails: &mut Vec<Trail>| {
            let trail_idx = trails.len();
            let mut nodes = vec![start_node];
            let mut edges = Vec::new();
            let mut v = start_node;
            let mut e = start_edge;
            let closed;
            loop {
                used[e.index()] = true;
                edge_location[e.index()] = (trail_idx, edges.len());
                edges.push(e);
                let u = g.other_endpoint(e, v);
                nodes.push(u);
                match next_along_trail(g, uids, u, e) {
                    None => {
                        closed = false;
                        break;
                    }
                    Some(e2) => {
                        if e2 == start_edge && u == start_node {
                            closed = true;
                            break;
                        }
                        v = u;
                        e = e2;
                    }
                }
            }
            trails.push(Trail {
                nodes,
                edges,
                closed,
            });
        };

        // Open trails first: start from every unpaired slot.
        for v in g.nodes() {
            if g.degree(v) % 2 == 1 {
                let order = sorted_incident_by_uid(g, uids, v);
                let e = *order.last().expect("odd degree implies an edge");
                if !used[e.index()] {
                    extract(v, e, &mut used, &mut edge_location, &mut trails);
                }
            }
        }
        // Remaining edges lie on closed trails.
        for e in g.edge_ids() {
            if !used[e.index()] {
                let (u, _) = g.endpoints(e);
                extract(u, e, &mut used, &mut edge_location, &mut trails);
            }
        }
        EulerPartition {
            trails,
            edge_location,
        }
    }

    /// The trails of the partition.
    pub fn trails(&self) -> &[Trail] {
        &self.trails
    }

    /// Which trail an edge lies on and at what position.
    pub fn location_of(&self, e: EdgeId) -> (usize, usize) {
        self.edge_location[e.index()]
    }

    /// Orients every trail along its traversal direction, producing an
    /// almost-balanced orientation.
    pub fn orient_all_forward(&self, g: &Graph) -> Orientation {
        let mut o = Orientation::new(g.m());
        for t in &self.trails {
            orient_trail(g, t, true, &mut o);
        }
        o
    }
}

/// Orients the edges of a trail consistently: `forward` follows the trail's
/// traversal order, otherwise the reverse.
pub fn orient_trail(g: &Graph, t: &Trail, forward: bool, out: &mut Orientation) {
    for (i, &e) in t.edges.iter().enumerate() {
        let (a, b) = (t.nodes[i], t.nodes[i + 1]);
        if forward {
            out.set(g, e, a, b);
        } else {
            out.set(g, e, b, a);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::IdAssignment;
    use crate::{generators, GraphBuilder};

    fn uids(n: usize) -> Vec<u64> {
        IdAssignment::identity(n).as_slice().to_vec()
    }

    #[test]
    fn orientation_basics() {
        let g = generators::path(3);
        let mut o = Orientation::new(g.m());
        let e0 = g.edge_between(NodeId(0), NodeId(1)).unwrap();
        let e1 = g.edge_between(NodeId(1), NodeId(2)).unwrap();
        o.set(&g, e0, NodeId(1), NodeId(0));
        o.set(&g, e1, NodeId(1), NodeId(2));
        assert_eq!(o.out_degree(&g, NodeId(1)), 2);
        assert_eq!(o.in_degree(&g, NodeId(1)), 0);
        assert_eq!(o.head(&g, e0), NodeId(0));
        assert_eq!(o.tail(&g, e0), NodeId(1));
        assert!(!o.is_almost_balanced(&g)); // node 1 has out 2, in 0
    }

    #[test]
    fn cycle_partition_is_one_closed_trail() {
        let g = generators::cycle(7);
        let ep = EulerPartition::new(&g, &uids(7));
        assert_eq!(ep.trails().len(), 1);
        let t = &ep.trails()[0];
        assert!(t.closed);
        assert_eq!(t.len(), 7);
        assert_eq!(t.nodes[0], *t.nodes.last().unwrap());
    }

    #[test]
    fn path_partition_is_one_open_trail() {
        let g = generators::path(6);
        let ep = EulerPartition::new(&g, &uids(6));
        assert_eq!(ep.trails().len(), 1);
        let t = &ep.trails()[0];
        assert!(!t.closed);
        assert_eq!(t.len(), 5);
    }

    #[test]
    fn every_edge_on_exactly_one_trail() {
        for seed in 0..5 {
            let g = generators::random_bounded_degree(60, 7, 140, seed);
            let ep = EulerPartition::new(&g, &uids(60));
            let mut count = vec![0usize; g.m()];
            for t in ep.trails() {
                for &e in &t.edges {
                    count[e.index()] += 1;
                }
            }
            assert!(count.iter().all(|&c| c == 1));
            // Location map agrees.
            for (ti, t) in ep.trails().iter().enumerate() {
                for (pos, &e) in t.edges.iter().enumerate() {
                    assert_eq!(ep.location_of(e), (ti, pos));
                }
            }
        }
    }

    #[test]
    fn trails_are_locally_consistent() {
        let g = generators::random_even_degree(40, 6, 8, 3);
        let u = uids(40);
        let ep = EulerPartition::new(&g, &u);
        for t in ep.trails() {
            for i in 0..t.len() {
                let e = t.edges[i];
                assert_eq!(g.endpoints(e).0.min(g.endpoints(e).1), {
                    let (a, b) = (t.nodes[i], t.nodes[i + 1]);
                    a.min(b)
                });
                if i + 1 < t.len() {
                    // Walking locally reproduces the trail.
                    let next = next_along_trail(&g, &u, t.nodes[i + 1], e).unwrap();
                    assert_eq!(next, t.edges[i + 1]);
                }
            }
        }
    }

    #[test]
    fn forward_orientation_is_almost_balanced() {
        for seed in 0..8 {
            let g = generators::random_bounded_degree(80, 9, 200, seed);
            let o = EulerPartition::new(&g, &uids(80)).orient_all_forward(&g);
            assert!(o.is_almost_balanced(&g));
        }
    }

    #[test]
    fn even_degree_graph_gets_fully_balanced() {
        for seed in 0..5 {
            let g = generators::random_even_degree(50, 7, 9, seed);
            let o = EulerPartition::new(&g, &uids(50)).orient_all_forward(&g);
            assert!(o.is_balanced(&g));
        }
    }

    #[test]
    fn pairing_is_an_involution() {
        let g = generators::random_bounded_degree(40, 6, 90, 1);
        let u = uids(40);
        for v in g.nodes() {
            for &e in g.incident_edges(v) {
                if let Some(p) = pair_partner(&g, &u, v, e) {
                    assert_eq!(pair_partner(&g, &u, v, p), Some(e));
                    assert_ne!(p, e);
                }
            }
        }
    }

    #[test]
    fn odd_degree_has_one_unpaired() {
        let g = generators::star(3);
        let u = uids(4);
        let center = NodeId(0);
        let unpaired: Vec<EdgeId> = g
            .incident_edges(center)
            .iter()
            .copied()
            .filter(|&e| pair_partner(&g, &u, center, e).is_none())
            .collect();
        assert_eq!(unpaired.len(), 1);
    }

    #[test]
    fn slots_roundtrip() {
        let g = generators::complete(5);
        let u = uids(5);
        for v in g.nodes() {
            assert_eq!(slot_pairs(&g, v), 2);
            for s in 0..slot_pairs(&g, v) {
                let (a, b) = slot_edges(&g, &u, v, s);
                assert_eq!(slot_of(&g, &u, v, a), Some(s));
                assert_eq!(slot_of(&g, &u, v, b), Some(s));
                assert_eq!(pair_partner(&g, &u, v, a), Some(b));
            }
        }
    }

    #[test]
    fn pairing_respects_uid_order_not_index_order() {
        // A node with three neighbors; permuted uids change the pairing.
        let mut b = GraphBuilder::new(4);
        b.add_edge(NodeId(0), NodeId(1));
        b.add_edge(NodeId(0), NodeId(2));
        b.add_edge(NodeId(0), NodeId(3));
        let g = b.build();
        let u1 = vec![10, 1, 2, 3]; // neighbor order 1,2,3
        let u2 = vec![10, 3, 2, 1]; // neighbor order 3,2,1
        let e01 = g.edge_between(NodeId(0), NodeId(1)).unwrap();
        let e02 = g.edge_between(NodeId(0), NodeId(2)).unwrap();
        let e03 = g.edge_between(NodeId(0), NodeId(3)).unwrap();
        assert_eq!(pair_partner(&g, &u1, NodeId(0), e01), Some(e02));
        assert_eq!(pair_partner(&g, &u1, NodeId(0), e03), None);
        assert_eq!(pair_partner(&g, &u2, NodeId(0), e03), Some(e02));
        assert_eq!(pair_partner(&g, &u2, NodeId(0), e01), None);
    }

    #[test]
    fn outgoing_edges_listing() {
        let g = generators::cycle(4);
        let o = EulerPartition::new(&g, &uids(4)).orient_all_forward(&g);
        for v in g.nodes() {
            assert_eq!(o.outgoing_edges(&g, v).len(), 1);
        }
    }

    #[test]
    fn iterator_and_collected_outgoing_edges_agree() {
        let g = generators::complete(5);
        let o = EulerPartition::new(&g, &uids(5)).orient_all_forward(&g);
        for v in g.nodes() {
            let collected = o.outgoing_edges(&g, v);
            let iterated: Vec<_> = o.outgoing_edges_iter(&g, v).collect();
            assert_eq!(collected, iterated);
            assert_eq!(o.out_degree(&g, v), iterated.len());
            assert_eq!(o.in_degree(&g, v), g.degree(v) - iterated.len());
        }
    }
}
