//! Radius-`r` views — what a node knows after `r` rounds in the LOCAL model.

use crate::network::Network;
use lad_graph::{EdgeId, Graph, GraphBuilder, NodeId};

/// The radius-`r` view of a node: the subgraph induced by `N_{≤r}(v)`
/// *minus* edges between two nodes at distance exactly `r` (those are only
/// learned after `r + 1` rounds), together with the identifiers, inputs,
/// and true degrees of every node in it.
///
/// Nodes and edges inside the ball use **local** indices; convert with
/// [`Ball::global_node`] / [`Ball::global_edge`]. Decoders should base all
/// decisions on unique identifiers (as LOCAL algorithms must), using global
/// indices only to *address* their outputs.
///
/// # Example
///
/// ```
/// use lad_graph::generators;
/// use lad_runtime::{Network, run_local};
///
/// let net = Network::with_identity_ids(generators::cycle(8));
/// let (outs, _) = run_local(&net, |ctx| {
///     let ball = ctx.ball(3);
///     (ball.n(), ball.graph().m())
/// });
/// // 7 nodes within distance 3; the two frontier nodes' connecting edge
/// // (at distance 4 around the back) is invisible.
/// assert!(outs.iter().all(|&(n, m)| n == 7 && m == 6));
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Ball<In = ()> {
    graph: Graph,
    center: NodeId,
    radius: usize,
    meta: Vec<NodeMeta>,
    uids: Vec<u64>,
    inputs: Vec<In>,
    to_global_edge: Vec<EdgeId>,
}

/// Per-node metadata (global name, BFS distance, true network degree) packed
/// into one contiguous table: one allocation per ball instead of three
/// parallel `Vec`s.
#[derive(Debug, Clone, PartialEq, Eq)]
struct NodeMeta {
    global: NodeId,
    dist: u32,
    degree: u32,
}

/// Reusable per-worker BFS bookkeeping: an epoch-stamped visited/local-index
/// array sized to the *network*, amortized over every ball a worker gathers,
/// plus reusable assembly buffers (edge enumeration, spare membership
/// storage). Replaces the per-ball `HashMap` on the executor hot paths —
/// membership tests become two array reads and gathering/assembly allocates
/// nothing beyond the ball's own retained storage.
#[derive(Debug)]
pub(crate) struct Scratch {
    stamp: Vec<u32>,
    local: Vec<u32>,
    epoch: u32,
    /// Edge-enumeration buffer for [`build_from_members`]: local `(min,
    /// max)` endpoints plus the global edge id, reused across balls.
    pairs: Vec<(NodeId, NodeId, EdgeId)>,
    /// Recycled membership storage: [`BallMembers::gather`] starts from
    /// this buffer and [`BallMembers::recycle`] returns it, so transient
    /// memberships (dropped after a fused gather-and-build) stop paying
    /// grow-from-one reallocation per ball.
    members_spare: Vec<(NodeId, usize)>,
}

impl Scratch {
    /// Scratch for an `n`-node network.
    pub(crate) fn new(n: usize) -> Self {
        Scratch {
            stamp: vec![0; n],
            local: vec![0; n],
            epoch: 0,
            pairs: Vec::new(),
            members_spare: Vec::new(),
        }
    }

    /// Grows the scratch to cover an `n`-node network. New entries carry
    /// stamp 0, which never equals a live epoch, so growing cannot create
    /// phantom memberships.
    pub(crate) fn ensure(&mut self, n: usize) {
        if self.stamp.len() < n {
            self.stamp.resize(n, 0);
            self.local.resize(n, 0);
        }
    }

    /// Starts a fresh membership set (O(1) amortized).
    fn begin(&mut self) {
        if self.epoch == u32::MAX {
            self.stamp.fill(0);
            self.epoch = 0;
        }
        self.epoch += 1;
    }

    #[inline]
    fn insert(&mut self, v: NodeId, local: u32) {
        self.stamp[v.index()] = self.epoch;
        self.local[v.index()] = local;
    }

    #[inline]
    fn get(&self, v: NodeId) -> Option<NodeId> {
        (self.stamp[v.index()] == self.epoch).then(|| NodeId(self.local[v.index()]))
    }

    /// The local index of `v` under the *current* epoch — the membership a
    /// just-run [`BallMembers::gather`] / [`BallMembers::expand`] stamped.
    /// Lets the memo executor key a membership without rebuilding a
    /// global-to-local map.
    #[inline]
    pub(crate) fn current_local(&self, v: NodeId) -> Option<NodeId> {
        self.get(v)
    }
}

/// The BFS *membership* of a ball: nodes in discovery order with their
/// distances, complete up to `radius`. Separated from [`Ball`] so a ladder
/// can key it without building the ball and grow it in place — expanding
/// radius `r` to `r + 1` continues the frontier BFS instead of re-running
/// it from the center.
///
/// Invariant: `members` is exactly the sequence a from-scratch bounded BFS
/// ([`Ball::collect`]) would produce at `radius`, so distances are
/// nondecreasing.
#[derive(Debug, Clone)]
pub(crate) struct BallMembers {
    members: Vec<(NodeId, usize)>,
    radius: usize,
}

impl BallMembers {
    /// Bounded BFS from `center`, identical in discovery order to
    /// [`Ball::collect`].
    pub(crate) fn gather(g: &Graph, center: NodeId, radius: usize, scratch: &mut Scratch) -> Self {
        scratch.begin();
        let mut members = std::mem::take(&mut scratch.members_spare);
        members.clear();
        members.push((center, 0));
        scratch.insert(center, 0);
        let mut head = 0usize;
        while head < members.len() {
            let (v, d) = members[head];
            head += 1;
            if d == radius {
                continue;
            }
            for &u in g.neighbors(v) {
                if scratch.get(u).is_none() {
                    scratch.insert(u, members.len() as u32);
                    members.push((u, d + 1));
                }
            }
        }
        BallMembers { members, radius }
    }

    /// The radius this membership is complete to.
    pub(crate) fn radius(&self) -> usize {
        self.radius
    }

    /// The members in BFS discovery order with their distances.
    pub(crate) fn members(&self) -> &[(NodeId, usize)] {
        &self.members
    }

    /// Returns this membership's storage to `scratch` for the next
    /// [`BallMembers::gather`] — call instead of dropping when the
    /// membership is not retained.
    pub(crate) fn recycle(self, scratch: &mut Scratch) {
        if self.members.capacity() > scratch.members_spare.capacity() {
            scratch.members_spare = self.members;
        }
    }

    /// Grows the membership to `new_radius` by continuing the BFS from the
    /// current frontier. Nodes strictly inside the old radius already have
    /// all neighbors discovered, so only frontier and newer nodes are
    /// (re)processed; the resulting member order is exactly what a
    /// from-scratch BFS at `new_radius` would produce.
    pub(crate) fn expand(&mut self, g: &Graph, new_radius: usize, scratch: &mut Scratch) {
        if new_radius <= self.radius {
            return;
        }
        scratch.begin();
        for (i, &(v, _)) in self.members.iter().enumerate() {
            scratch.insert(v, i as u32);
        }
        let old_radius = self.radius;
        let mut head = self.members.partition_point(|&(_, d)| d < old_radius);
        while head < self.members.len() {
            let (v, d) = self.members[head];
            head += 1;
            if d == new_radius {
                continue;
            }
            for &u in g.neighbors(v) {
                if scratch.get(u).is_none() {
                    scratch.insert(u, self.members.len() as u32);
                    self.members.push((u, d + 1));
                }
            }
        }
        self.radius = new_radius;
    }

    /// Materializes the full-radius ball directly from the stamps a just-run
    /// [`BallMembers::gather`] or [`BallMembers::expand`] left in `scratch`.
    /// Only valid immediately after either with the same scratch (no
    /// intervening `begin`).
    pub(crate) fn build_current<In: Clone>(
        &self,
        net: &Network<In>,
        scratch: &mut Scratch,
    ) -> Ball<In> {
        let Scratch {
            stamp,
            local,
            epoch,
            pairs,
            ..
        } = scratch;
        let epoch = *epoch;
        build_from_members(
            net,
            &self.members,
            self.radius,
            |u| (stamp[u.index()] == epoch).then(|| NodeId(local[u.index()])),
            pairs,
        )
    }
}

/// Shared ball constructor for the scratch-backed paths: builds the view
/// subgraph, per-node tables, and global-name maps from a BFS membership
/// with no transient allocation — edge enumeration reuses `pairs` and the
/// subgraph CSR is assembled directly from the sorted edge list
/// ([`lad_graph::builder::from_sorted_edges`]). The sequential reference
/// ([`Ball::collect_reference`]) keeps its own `GraphBuilder`-based copy of
/// this assembly, so the two executor paths remain independently
/// implemented and the differential tests compare real alternatives.
pub(crate) fn build_from_members<In: Clone>(
    net: &Network<In>,
    members: &[(NodeId, usize)],
    radius: usize,
    local_of: impl Fn(NodeId) -> Option<NodeId>,
    pairs: &mut Vec<(NodeId, NodeId, EdgeId)>,
) -> Ball<In> {
    let g = net.graph();
    // An edge is known exactly when an endpoint lies at distance < r.
    // Distances are nondecreasing in local index (BFS order), so the
    // smaller endpoint of every known edge is itself at distance < r:
    // enumerating from the smaller endpoint visits each edge exactly once,
    // with no dedup set. Either endpoint's adjacency slot names the same
    // global edge, so the recorded id matches the reference path's.
    //
    // Members emit their pairs in increasing local index, so the pair list
    // is in `(min, max)` order once each member's own run (at most its
    // degree) is sorted by the larger endpoint.
    pairs.clear();
    for (li, &(v, d)) in members.iter().enumerate() {
        if d == radius {
            break; // frontier suffix: edges among frontier nodes are unknown
        }
        let lv = NodeId::from_index(li);
        let run = pairs.len();
        for (&u, &e) in g.neighbors(v).iter().zip(g.incident_edges(v)) {
            if let Some(lu) = local_of(u) {
                if lv < lu {
                    pairs.push((lv, lu, e));
                }
            }
        }
        pairs[run..].sort_unstable_by_key(|&(_, b, _)| b);
    }
    let edges: Vec<(NodeId, NodeId)> = pairs.iter().map(|&(a, b, _)| (a, b)).collect();
    let to_global_edge: Vec<EdgeId> = pairs.iter().map(|&(_, _, e)| e).collect();
    let graph = lad_graph::builder::from_sorted_edges(members.len(), edges);
    debug_assert_eq!(graph.m(), to_global_edge.len());
    let meta = members
        .iter()
        .map(|&(v, d)| NodeMeta {
            global: v,
            dist: d as u32,
            degree: g.degree(v) as u32,
        })
        .collect();
    let uids = members.iter().map(|&(v, _)| net.uid(v)).collect();
    let inputs = members.iter().map(|&(v, _)| net.input(v).clone()).collect();
    Ball {
        graph,
        center: NodeId(0),
        radius,
        meta,
        uids,
        inputs,
        to_global_edge,
    }
}

impl<In: Clone> Ball<In> {
    /// Materializes the radius-`r` view of `center` in `net`.
    ///
    /// Work and memory are proportional to the *ball*, not the graph: the
    /// bounded BFS runs over an epoch-stamped `Scratch` kept per thread,
    /// so membership tests are two array reads and repeated calls allocate
    /// nothing beyond the ball itself. A deliberately independent
    /// `HashMap` implementation (`collect_reference`, crate-private) is
    /// what the differential tests compare against.
    pub fn collect(net: &Network<In>, center: NodeId, radius: usize) -> Self {
        use std::cell::RefCell;
        thread_local! {
            static SCRATCH: RefCell<Scratch> = RefCell::new(Scratch::new(0));
        }
        SCRATCH.with(|cell| {
            let mut scratch = cell.borrow_mut();
            scratch.ensure(net.graph().n());
            Self::collect_with(net, center, radius, &mut scratch)
        })
    }

    /// [`Ball::collect`] on a caller-owned scratch sized for `net`: the
    /// per-chunk view source of every [`crate::Run`].
    pub(crate) fn collect_with(
        net: &Network<In>,
        center: NodeId,
        radius: usize,
        scratch: &mut Scratch,
    ) -> Self {
        let members = BallMembers::gather(net.graph(), center, radius, scratch);
        let ball = members.build_current(net, scratch);
        members.recycle(scratch);
        ball
    }

    /// The original per-call `HashMap` bounded BFS, kept as a fully
    /// self-contained, independent reference implementation: the sequential
    /// reference executor ([`crate::run_local`]) builds its views through
    /// this path — per-ball map bookkeeping, `GraphBuilder` subgraph
    /// assembly and all — so the differential harness compares two
    /// genuinely different codepaths against the scratch-backed
    /// [`build_from_members`] pipeline.
    pub(crate) fn collect_reference(net: &Network<In>, center: NodeId, radius: usize) -> Self {
        let g = net.graph();
        // Bounded BFS with ball-sized bookkeeping.
        let mut local_of: std::collections::HashMap<NodeId, NodeId> =
            std::collections::HashMap::new();
        let mut members: Vec<(NodeId, usize)> = vec![(center, 0)];
        local_of.insert(center, NodeId(0));
        let mut head = 0usize;
        while head < members.len() {
            let (v, d) = members[head];
            head += 1;
            if d == radius {
                continue;
            }
            for &u in g.neighbors(v) {
                if let std::collections::hash_map::Entry::Vacant(e) = local_of.entry(u) {
                    e.insert(NodeId::from_index(members.len()));
                    members.push((u, d + 1));
                }
            }
        }
        // Dedup-set subgraph assembly, structurally identical to (but
        // implemented independently of) the scratch path's sorted-edge CSR
        // construction.
        let mut b = GraphBuilder::new(members.len());
        let mut edge_pairs = Vec::new();
        for (li, &(v, d)) in members.iter().enumerate() {
            if d == radius {
                continue; // only edges with an endpoint at distance < r are known
            }
            for (&u, &e) in g.neighbors(v).iter().zip(g.incident_edges(v)) {
                if let Some(&lu) = local_of.get(&u) {
                    let lv = NodeId::from_index(li);
                    if b.add_edge(lv, lu) {
                        edge_pairs.push(((lv.min(lu), lv.max(lu)), e));
                    }
                }
            }
        }
        // The builder sorts edges by endpoint pair; replicate that order
        // for the global-edge map.
        edge_pairs.sort_by_key(|&(pair, _)| pair);
        let to_global_edge: Vec<EdgeId> = edge_pairs.iter().map(|&(_, e)| e).collect();
        let graph = b.build();
        debug_assert_eq!(graph.m(), to_global_edge.len());
        let meta = members
            .iter()
            .map(|&(v, d)| NodeMeta {
                global: v,
                dist: d as u32,
                degree: g.degree(v) as u32,
            })
            .collect();
        let uids = members.iter().map(|&(v, _)| net.uid(v)).collect();
        let inputs = members.iter().map(|&(v, _)| net.input(v).clone()).collect();
        Ball {
            graph,
            center: NodeId(0),
            radius,
            meta,
            uids,
            inputs,
            to_global_edge,
        }
    }
}

impl<In> Ball<In> {
    /// Assembles a ball from raw parts — used by
    /// [`crate::gather`] to build views out of *received messages* rather
    /// than direct graph access. The center must be local index 0.
    ///
    /// Assembled balls carry no global names: [`Ball::global_node`] and
    /// [`Ball::global_edge`] return the local indices themselves, so
    /// algorithms that address outputs globally should run on collected
    /// balls (or address by identifier).
    ///
    /// # Panics
    ///
    /// Panics if the part lengths disagree or node 0 is not at distance 0.
    pub fn assemble(
        graph: Graph,
        radius: usize,
        dist: Vec<usize>,
        uids: Vec<u64>,
        inputs: Vec<In>,
        global_degree: Vec<usize>,
    ) -> Self {
        let n = graph.n();
        assert!(n > 0 && dist[0] == 0, "center must be local index 0");
        assert!(dist.len() == n && uids.len() == n && inputs.len() == n);
        assert_eq!(global_degree.len(), n);
        let meta = graph
            .nodes()
            .map(|v| NodeMeta {
                global: v,
                dist: dist[v.index()] as u32,
                degree: global_degree[v.index()] as u32,
            })
            .collect();
        let to_global_edge = graph.edge_ids().collect();
        Ball {
            graph,
            center: NodeId(0),
            radius,
            meta,
            uids,
            inputs,
            to_global_edge,
        }
    }

    /// Number of nodes in the view.
    pub fn n(&self) -> usize {
        self.graph.n()
    }

    /// The view's subgraph (local indices).
    pub fn graph(&self) -> &Graph {
        &self.graph
    }

    /// The center node (always local index 0).
    pub fn center(&self) -> NodeId {
        self.center
    }

    /// The view radius `r`.
    pub fn radius(&self) -> usize {
        self.radius
    }

    /// Distance from the center to a local node.
    pub fn dist(&self, local: NodeId) -> usize {
        self.meta[local.index()].dist as usize
    }

    /// The unique identifier of a local node.
    pub fn uid(&self, local: NodeId) -> u64 {
        self.uids[local.index()]
    }

    /// All identifiers, indexed by local node — in the layout
    /// `lad_graph::orientation` helpers expect.
    pub fn uids(&self) -> &[u64] {
        &self.uids
    }

    /// The input of a local node.
    pub fn input(&self, local: NodeId) -> &In {
        &self.inputs[local.index()]
    }

    /// The *true* degree of a local node in the underlying network (nodes
    /// announce their degree, so this is known even at the frontier).
    pub fn global_degree(&self, local: NodeId) -> usize {
        self.meta[local.index()].degree as usize
    }

    /// Whether the view contains *all* edges of `local` — true exactly when
    /// `dist(local) < radius`. Only then may pairing/slot computations be
    /// performed at `local`.
    pub fn knows_all_edges_of(&self, local: NodeId) -> bool {
        let m = &self.meta[local.index()];
        (m.dist as usize) < self.radius && self.graph.degree(local) == m.degree as usize
    }

    /// The local node carrying identifier `uid`, if present.
    pub fn node_with_uid(&self, uid: u64) -> Option<NodeId> {
        self.uids
            .iter()
            .position(|&u| u == uid)
            .map(NodeId::from_index)
    }

    /// The global name of a local node (for addressing outputs only).
    pub fn global_node(&self, local: NodeId) -> NodeId {
        self.meta[local.index()].global
    }

    /// The global name of a local edge (for addressing outputs only).
    pub fn global_edge(&self, local: EdgeId) -> EdgeId {
        self.to_global_edge[local.index()]
    }

    /// The local node corresponding to a global node, if inside the view.
    pub fn local_node(&self, global: NodeId) -> Option<NodeId> {
        self.meta
            .iter()
            .position(|m| m.global == global)
            .map(NodeId::from_index)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lad_graph::generators;

    #[test]
    fn ball_on_cycle_excludes_frontier_edge() {
        let net = Network::with_identity_ids(generators::cycle(6));
        let ball = Ball::collect(&net, NodeId(0), 3);
        // Radius 3 on C6 sees all 6 nodes; node 3 is at distance 3, and its
        // edges to nodes 2 and 4 are known because 2 and 4 are at distance 2.
        assert_eq!(ball.n(), 6);
        assert_eq!(ball.graph().m(), 6);
        let b2 = Ball::collect(&net, NodeId(0), 2);
        assert_eq!(b2.n(), 5);
        assert_eq!(b2.graph().m(), 4);
    }

    #[test]
    fn center_is_local_zero() {
        let net = Network::with_identity_ids(generators::grid2d(4, 4, false));
        let ball = Ball::collect(&net, NodeId(5), 2);
        assert_eq!(ball.center(), NodeId(0));
        assert_eq!(ball.global_node(NodeId(0)), NodeId(5));
        assert_eq!(ball.dist(NodeId(0)), 0);
        assert_eq!(ball.uid(NodeId(0)), 6);
    }

    #[test]
    fn knows_all_edges_only_inside() {
        let net = Network::with_identity_ids(generators::path(9));
        let ball = Ball::collect(&net, NodeId(4), 2);
        for v in ball.graph().nodes() {
            let expect = ball.dist(v) < 2;
            assert_eq!(ball.knows_all_edges_of(v), expect, "node {v:?}");
        }
    }

    #[test]
    fn global_degree_visible_at_frontier() {
        let net = Network::with_identity_ids(generators::star(5));
        // Take a leaf; radius 1 sees the center at the frontier with its
        // true degree 5 even though only one of its edges is in the view.
        let ball = Ball::collect(&net, NodeId(1), 1);
        let center_local = ball.local_node(NodeId(0)).unwrap();
        assert_eq!(ball.global_degree(center_local), 5);
        assert_eq!(ball.graph().degree(center_local), 1);
    }

    #[test]
    fn global_edge_mapping_consistent() {
        let net = Network::with_identity_ids(generators::grid2d(3, 3, false));
        let ball = Ball::collect(&net, NodeId(4), 2);
        let g = net.graph();
        for (le, (lu, lv)) in ball.graph().edges() {
            let ge = ball.global_edge(le);
            let (gu, gv) = g.endpoints(ge);
            let mapped = (ball.global_node(lu), ball.global_node(lv));
            assert!(mapped == (gu, gv) || mapped == (gv, gu));
        }
    }

    #[test]
    fn inputs_travel_with_ball() {
        let g = generators::path(4);
        let net = Network::with_identity_ids(g).with_inputs(vec![9, 8, 7, 6]);
        let ball = Ball::collect(&net, NodeId(3), 1);
        let local2 = ball.local_node(NodeId(2)).unwrap();
        assert_eq!(*ball.input(local2), 7);
    }

    #[test]
    fn scratch_and_reference_collect_agree() {
        // `collect` (epoch-stamped scratch) and `collect_reference`
        // (HashMap) are independent implementations; they must produce
        // structurally identical balls, including discovery order.
        for g in [
            generators::cycle(12),
            generators::path(9),
            generators::grid2d(4, 5, true),
            generators::complete(6),
        ] {
            let net = Network::with_identity_ids(g);
            for v in net.graph().nodes() {
                for r in 0..4 {
                    assert_eq!(
                        Ball::collect(&net, v, r),
                        Ball::collect_reference(&net, v, r),
                        "node {v:?} radius {r}"
                    );
                }
            }
        }
    }

    #[test]
    fn thread_local_scratch_survives_network_size_changes() {
        // Interleave collects on networks of different sizes to exercise
        // `Scratch::ensure` growth on the shared thread-local scratch.
        let small = Network::with_identity_ids(generators::cycle(5));
        let big = Network::with_identity_ids(generators::grid2d(8, 8, false));
        for r in 0..3 {
            let a = Ball::collect(&small, NodeId(1), r);
            let b = Ball::collect(&big, NodeId(9), r + 1);
            let c = Ball::collect(&small, NodeId(4), r);
            assert_eq!(a, Ball::collect_reference(&small, NodeId(1), r));
            assert_eq!(b, Ball::collect_reference(&big, NodeId(9), r + 1));
            assert_eq!(c, Ball::collect_reference(&small, NodeId(4), r));
        }
    }

    #[test]
    fn radius_zero_is_lonely() {
        let net = Network::with_identity_ids(generators::cycle(5));
        let ball = Ball::collect(&net, NodeId(2), 0);
        assert_eq!(ball.n(), 1);
        assert_eq!(ball.graph().m(), 0);
        assert_eq!(ball.global_degree(NodeId(0)), 2);
    }
}
