//! Graph partitions and halo-extended shard views for out-of-core runs.
//!
//! A `T`-round LOCAL algorithm reads nothing outside each node's
//! radius-`T` ball, so an `n`-node run decomposes into `K` independent
//! slices: partition the nodes, and give each shard its *interior*
//! (the nodes it owns) plus a read-only *halo* — every node within
//! distance `T` of the interior. The shard's induced subgraph then
//! contains every ball of radius `≤ T − 1` around an interior node
//! **bit-identically** (see the soundness note below), so decoding the
//! interior of each shard in isolation reproduces the global run exactly.
//!
//! # Halo soundness
//!
//! Let `M ⊇ N_{≤T}[interior]` be a shard's member set and take any
//! interior center `c` and radius `r ≤ T − 1`:
//!
//! * **Distances are exact.** A global shortest path to a node at
//!   distance `d ≤ r` stays within distance `d ≤ T − 1` of `c`, hence
//!   inside `M`; induced-subgraph distances can only exceed global ones,
//!   so they agree on the whole ball.
//! * **Degrees are exact.** A ball records the host graph's degree of
//!   every member, including those at distance exactly `r`. Such a
//!   member's neighbors sit at distance `≤ r + 1 ≤ T`, all inside `M`,
//!   so the induced degree equals the global degree.
//!
//! Together the local ball has the same members, distances, edges,
//! degrees, identifiers, and inputs as the global one — only the
//! *global node names* differ, and those never influence an
//! order-invariant step. Radius `T` itself is **not** safe: a member at
//! distance `T` may be missing edges to nodes outside `M`, so its
//! recorded degree would silently undercount. The runtime driver
//! therefore enforces `ladder radius ≤ halo_radius − 1` and fails
//! loudly instead of truncating.

use crate::builder::from_sorted_edges;
use crate::graph::{Graph, NodeId};

/// A disjoint assignment of every node to one of `k` shards.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Partition {
    owner: Vec<u32>,
    k: usize,
}

impl Partition {
    /// Contiguous index ranges: shard `s` owns nodes
    /// `[s·⌈n/k⌉, (s+1)·⌈n/k⌉)`. On a row-major grid these are row bands.
    ///
    /// # Panics
    ///
    /// Panics if `k == 0`.
    pub fn contiguous(n: usize, k: usize) -> Self {
        assert!(k >= 1, "a partition needs at least one shard");
        let slab = n.div_ceil(k).max(1);
        Partition {
            owner: (0..n).map(|i| ((i / slab).min(k - 1)) as u32).collect(),
            k,
        }
    }

    /// BFS-grown shards: nodes are laid out in network-wide BFS order
    /// (restarting at the smallest unvisited node per component) and that
    /// order is cut into `k` equal slabs, so each shard is a union of
    /// spatially coherent BFS runs and its boundary — hence its halo —
    /// stays near the slab seams instead of scaling with the shard size.
    ///
    /// # Panics
    ///
    /// Panics if `k == 0`.
    pub fn bfs_grown(g: &Graph, k: usize) -> Self {
        assert!(k >= 1, "a partition needs at least one shard");
        let n = g.n();
        let mut order = Vec::with_capacity(n);
        let mut seen = vec![false; n];
        let mut head = 0usize;
        let mut next_seed = 0usize;
        while order.len() < n {
            if head == order.len() {
                while seen[next_seed] {
                    next_seed += 1;
                }
                seen[next_seed] = true;
                order.push(NodeId::from_index(next_seed));
            }
            let v = order[head];
            head += 1;
            for &u in g.neighbors(v) {
                if !seen[u.index()] {
                    seen[u.index()] = true;
                    order.push(u);
                }
            }
        }
        let slab = n.div_ceil(k).max(1);
        let mut owner = vec![0u32; n];
        for (pos, v) in order.into_iter().enumerate() {
            owner[v.index()] = ((pos / slab).min(k - 1)) as u32;
        }
        Partition { owner, k }
    }

    /// Number of shards.
    pub fn k(&self) -> usize {
        self.k
    }

    /// Number of nodes covered.
    pub fn n(&self) -> usize {
        self.owner.len()
    }

    /// The shard owning `v`.
    #[inline]
    pub fn owner(&self, v: NodeId) -> usize {
        self.owner[v.index()] as usize
    }
}

/// One shard's slice of the graph: its interior nodes plus a radius-`T`
/// halo, with the induced subgraph rebuilt as a compact local CSR
/// (local id = rank of the global id among `members`).
#[derive(Debug, Clone)]
pub struct ShardView {
    /// Which shard of the partition this is.
    pub shard: usize,
    /// Halo depth `T` the members were grown to.
    pub halo_radius: usize,
    /// Global ids of every member (interior ∪ halo), ascending; the local
    /// id of `members[i]` is `i`.
    pub members: Vec<NodeId>,
    /// Per member: owned by this shard (true) or halo (false).
    pub interior: Vec<bool>,
    /// The induced subgraph on `members`, in local ids.
    pub graph: Graph,
}

impl ShardView {
    /// Builds the view of `shard` under `part` with a halo of depth
    /// `halo_radius`. The halo is exactly `N_{≤T}[interior] \ interior`,
    /// grown by one depth-bounded, level-synchronous BFS from the shard's
    /// *boundary* (interior nodes with a non-interior neighbor) — every
    /// halo node is within `T` of one of those. The BFS stops after `T`
    /// levels or at the first level that adds nothing, and expands each
    /// view member at most once: O(|view|·Δ), plus O(n) scans for the
    /// partition, the membership flags and the local-id table.
    ///
    /// # Panics
    ///
    /// Panics if `shard ≥ part.k()` or the partition does not match `g`.
    pub fn build(g: &Graph, part: &Partition, shard: usize, halo_radius: usize) -> ShardView {
        assert!(shard < part.k(), "shard index out of range");
        assert_eq!(part.n(), g.n(), "partition does not match the graph");
        let n = g.n();
        let mut member = vec![false; n];
        let mut level: Vec<NodeId> = Vec::new();
        for (i, m) in member.iter_mut().enumerate() {
            let v = NodeId::from_index(i);
            if part.owner(v) != shard {
                continue;
            }
            *m = true;
            if g.neighbors(v).iter().any(|&u| part.owner(u) != shard) {
                level.push(v);
            }
        }
        // `level` holds the members at distance exactly `d` from the
        // interior; their new neighbors are the halo at distance `d + 1`.
        let mut next: Vec<NodeId> = Vec::new();
        for _ in 0..halo_radius {
            for &v in &level {
                for &u in g.neighbors(v) {
                    if !member[u.index()] {
                        member[u.index()] = true;
                        next.push(u);
                    }
                }
            }
            if next.is_empty() {
                break;
            }
            level.clear();
            std::mem::swap(&mut level, &mut next);
        }
        let members: Vec<NodeId> = (0..n)
            .filter(|&i| member[i])
            .map(NodeId::from_index)
            .collect();
        let mut local = vec![u32::MAX; n];
        for (li, &v) in members.iter().enumerate() {
            local[v.index()] = li as u32;
        }
        // Ascending members × ascending larger member-neighbors emits the
        // induced edges already lex-sorted in local ids (local order is
        // global order), so the CSR builds with no sort pass.
        let mut edges: Vec<(NodeId, NodeId)> = Vec::new();
        for (li, &v) in members.iter().enumerate() {
            for &u in g.neighbors(v) {
                if u > v && member[u.index()] {
                    edges.push((
                        NodeId::from_index(li),
                        NodeId::from_index(local[u.index()] as usize),
                    ));
                }
            }
        }
        let graph = from_sorted_edges(members.len(), edges);
        let interior = members.iter().map(|&v| part.owner(v) == shard).collect();
        ShardView {
            shard,
            halo_radius,
            members,
            interior,
            graph,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::GraphBuilder;
    use crate::generators;
    use crate::traversal;

    /// The nodes shard `s` owns, in ascending index order.
    fn owned_by(p: &Partition, s: usize) -> Vec<NodeId> {
        (0..p.n())
            .map(NodeId::from_index)
            .filter(|&v| p.owner(v) == s)
            .collect()
    }

    #[test]
    fn contiguous_covers_and_balances() {
        let p = Partition::contiguous(10, 3);
        assert_eq!(p.k(), 3);
        let sizes: Vec<usize> = (0..3).map(|s| owned_by(&p, s).len()).collect();
        assert_eq!(sizes, vec![4, 4, 2]);
        assert_eq!(p.owner(NodeId(0)), 0);
        assert_eq!(p.owner(NodeId(9)), 2);
        // k > n still covers every node with in-range owners.
        let p = Partition::contiguous(2, 8);
        assert_eq!((0..8).map(|s| owned_by(&p, s).len()).sum::<usize>(), 2);
    }

    #[test]
    fn bfs_grown_is_a_partition_of_coherent_runs() {
        let g = generators::grid2d(8, 8, false);
        let p = Partition::bfs_grown(&g, 4);
        assert_eq!(p.n(), 64);
        // Each shard holds a quarter of the nodes and should be far more
        // internally connected than a random 16-node subset of the grid:
        // at least half its nodes have a same-shard neighbor.
        for s in 0..4 {
            let nodes = owned_by(&p, s);
            assert_eq!(nodes.len(), 16, "shard {s}");
            let internal = nodes
                .iter()
                .filter(|&&v| g.neighbors(v).iter().any(|&u| p.owner(u) == s))
                .count();
            assert!(internal * 2 >= nodes.len(), "shard {s} is scattered");
        }
    }

    /// Asserts that `view.graph` is the subgraph of `g` induced on the
    /// view's members, with ports implied by sorted adjacency in both
    /// graphs.
    fn assert_induced(g: &Graph, view: &ShardView, at: &str) {
        let mut m = 0usize;
        for (li, &v) in view.members.iter().enumerate() {
            let locals: Vec<NodeId> = g
                .neighbors(v)
                .iter()
                .filter_map(|&u| view.members.binary_search(&u).ok().map(NodeId::from_index))
                .collect();
            assert_eq!(
                view.graph.neighbors(NodeId::from_index(li)),
                &locals[..],
                "{at}: adjacency of member {v:?}"
            );
            m += locals.len();
        }
        assert_eq!(view.graph.m() * 2, m, "{at}");
    }

    #[test]
    fn view_members_are_exactly_the_halo_closure() {
        let torus6 = generators::grid2d(6, 6, true);
        let torus16 = generators::grid2d(16, 16, true);
        let random = generators::random_bounded_degree(80, 4, 140, 3);
        let union = generators::disjoint_union(&[
            generators::cycle(7),
            generators::path(5),
            GraphBuilder::new(1).build(), // an isolated node
            generators::grid2d(3, 3, false),
        ]);
        // Shard 1 owns nothing.
        let owners = Partition {
            owner: (0..union.n())
                .map(|i| if i % 3 == 0 { 0 } else { 2 })
                .collect(),
            k: 3,
        };
        let cases: Vec<(&str, &Graph, Partition)> = vec![
            ("6x6 torus", &torus6, Partition::contiguous(torus6.n(), 3)),
            ("16x16 torus", &torus16, Partition::contiguous(256, 1)),
            ("16x16 torus", &torus16, Partition::contiguous(256, 4)),
            ("16x16 torus", &torus16, Partition::contiguous(256, 8)),
            ("16x16 torus", &torus16, Partition::bfs_grown(&torus16, 5)),
            ("random", &random, Partition::contiguous(random.n(), 3)),
            ("random", &random, Partition::bfs_grown(&random, 4)),
            ("union", &union, Partition::contiguous(union.n(), 4)),
            ("union", &union, owners),
        ];
        for (name, g, part) in &cases {
            let k = part.k();
            for shard in 0..k {
                // Oracle: BFS distance from every interior node, minimized.
                let interior = owned_by(part, shard);
                let mut near: Vec<Option<usize>> = vec![None; g.n()];
                for &c in &interior {
                    let dist = traversal::bfs_distances(g, c);
                    for (best, d) in near.iter_mut().zip(dist) {
                        *best = match (*best, d) {
                            (Some(b), Some(d)) => Some(b.min(d)),
                            (b, d) => b.or(d),
                        };
                    }
                }
                // 64 exceeds every diameter: the view becomes the union of
                // the components the interior touches.
                for t in [0usize, 1, 2, 5, 9, 64] {
                    let at = format!("{name} k={k} shard {shard} halo {t}");
                    let view = ShardView::build(g, part, shard, t);
                    let expect: Vec<NodeId> = g
                        .nodes()
                        .filter(|v| near[v.index()].is_some_and(|d| d <= t))
                        .collect();
                    assert_eq!(view.members, expect, "{at}");
                    let owned: Vec<bool> = view
                        .members
                        .iter()
                        .map(|&v| part.owner(v) == shard)
                        .collect();
                    assert_eq!(view.interior, owned, "{at}");
                    let interior_count = view.interior.iter().filter(|&&b| b).count();
                    assert_eq!(interior_count, interior.len(), "{at}");
                    assert_induced(g, &view, &at);
                }
            }
        }
    }

    #[test]
    fn view_graph_is_the_induced_subgraph() {
        let g = generators::random_bounded_degree(60, 4, 100, 9);
        let part = Partition::bfs_grown(&g, 4);
        for shard in 0..4 {
            let view = ShardView::build(&g, &part, shard, 2);
            assert_induced(&g, &view, &format!("shard {shard}"));
        }
    }

    #[test]
    fn interior_nodes_cover_the_graph_once() {
        let g = generators::cycle(17);
        let part = Partition::contiguous(g.n(), 5);
        let mut owned = vec![0usize; g.n()];
        for shard in 0..5 {
            let view = ShardView::build(&g, &part, shard, 3);
            for (li, &v) in view.members.iter().enumerate() {
                if view.interior[li] {
                    owned[v.index()] += 1;
                }
            }
        }
        assert!(owned.iter().all(|&c| c == 1));
    }
}
