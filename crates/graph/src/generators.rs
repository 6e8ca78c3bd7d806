//! Deterministic and randomized graph generators for every family the
//! evaluation suite uses.
//!
//! All randomized generators take an explicit `seed` and are fully
//! deterministic given it (they use ChaCha8).

use crate::builder::GraphBuilder;
use crate::graph::{Graph, NodeId};
use rand::seq::SliceRandom;
use rand::Rng;
use rand_chacha::rand_core::SeedableRng;
use rand_chacha::ChaCha8Rng;

/// The cycle `C_n`.
///
/// # Panics
///
/// Panics if `n < 3`.
pub fn cycle(n: usize) -> Graph {
    assert!(n >= 3, "a cycle needs at least 3 nodes");
    let mut b = GraphBuilder::new(n);
    for i in 0..n {
        b.add_edge(NodeId::from_index(i), NodeId::from_index((i + 1) % n));
    }
    b.build()
}

/// The path `P_n` on `n` nodes (`n - 1` edges).
pub fn path(n: usize) -> Graph {
    let mut b = GraphBuilder::new(n);
    for i in 1..n {
        b.add_edge(NodeId::from_index(i - 1), NodeId::from_index(i));
    }
    b.build()
}

/// The complete graph `K_n`.
pub fn complete(n: usize) -> Graph {
    let mut b = GraphBuilder::new(n);
    for i in 0..n {
        for j in (i + 1)..n {
            b.add_edge(NodeId::from_index(i), NodeId::from_index(j));
        }
    }
    b.build()
}

/// The star `K_{1,k}`: node 0 is the center, `k` leaves.
pub fn star(k: usize) -> Graph {
    let mut b = GraphBuilder::new(k + 1);
    for i in 1..=k {
        b.add_edge(NodeId(0), NodeId::from_index(i));
    }
    b.build()
}

/// The `w × h` grid; with `wrap` it becomes a torus (both dimensions wrap).
///
/// Node `(x, y)` has index `y * w + x`. Grids have polynomial growth, making
/// them the canonical sub-exponential-growth family for Contribution 1.
///
/// # Panics
///
/// Panics if `wrap` is set with a dimension smaller than 3 (would create
/// duplicate/self edges).
pub fn grid2d(w: usize, h: usize, wrap: bool) -> Graph {
    if wrap {
        assert!(w >= 3 && h >= 3, "torus dimensions must be at least 3");
    }
    let mut b = GraphBuilder::new(w * h);
    let id = |x: usize, y: usize| NodeId::from_index(y * w + x);
    for y in 0..h {
        for x in 0..w {
            if x + 1 < w {
                b.add_edge(id(x, y), id(x + 1, y));
            } else if wrap {
                b.add_edge(id(x, y), id(0, y));
            }
            if y + 1 < h {
                b.add_edge(id(x, y), id(x, y + 1));
            } else if wrap {
                b.add_edge(id(x, y), id(x, 0));
            }
        }
    }
    b.build()
}

/// The `d`-dimensional hypercube `Q_d` on `2^d` nodes.
pub fn hypercube(d: u32) -> Graph {
    let n = 1usize << d;
    let mut b = GraphBuilder::new(n);
    for v in 0..n {
        for bit in 0..d {
            let u = v ^ (1 << bit);
            if u > v {
                b.add_edge(NodeId::from_index(v), NodeId::from_index(u));
            }
        }
    }
    b.build()
}

/// The complete `arity`-ary tree of the given `depth` (depth 0 = single root).
pub fn balanced_tree(arity: usize, depth: usize) -> Graph {
    let mut b = GraphBuilder::new(1);
    let mut frontier = vec![NodeId(0)];
    let mut next_index = 1usize;
    for _ in 0..depth {
        let mut next = Vec::new();
        for &parent in &frontier {
            for _ in 0..arity {
                b.ensure_nodes(next_index + 1);
                let child = NodeId::from_index(next_index);
                next_index += 1;
                b.add_edge(parent, child);
                next.push(child);
            }
        }
        frontier = next;
    }
    b.build()
}

/// A "caterpillar": a path of `spine` nodes with `legs` pendant leaves each.
pub fn caterpillar(spine: usize, legs: usize) -> Graph {
    let mut b = GraphBuilder::new(spine + spine * legs);
    for i in 1..spine {
        b.add_edge(NodeId::from_index(i - 1), NodeId::from_index(i));
    }
    let mut next = spine;
    for i in 0..spine {
        for _ in 0..legs {
            b.add_edge(NodeId::from_index(i), NodeId::from_index(next));
            next += 1;
        }
    }
    b.build()
}

/// Disjoint union of graphs, relabeling nodes consecutively.
pub fn disjoint_union(parts: &[Graph]) -> Graph {
    let n: usize = parts.iter().map(|g| g.n()).sum();
    let mut b = GraphBuilder::new(n);
    let mut base = 0usize;
    for g in parts {
        for (_, (u, v)) in g.edges() {
            b.add_edge(
                NodeId::from_index(base + u.index()),
                NodeId::from_index(base + v.index()),
            );
        }
        base += g.n();
    }
    b.build()
}

/// An Erdős–Rényi-style random graph conditioned on maximum degree ≤ `delta`:
/// `m_target` random edges are attempted, each kept only if it preserves the
/// degree bound and is not a duplicate.
pub fn random_bounded_degree(n: usize, delta: usize, m_target: usize, seed: u64) -> Graph {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let mut b = GraphBuilder::new(n);
    let mut deg = vec![0usize; n];
    let mut attempts = 0usize;
    let max_attempts = m_target.saturating_mul(20) + 100;
    while b.m() < m_target && attempts < max_attempts {
        attempts += 1;
        let u = rng.random_range(0..n);
        let v = rng.random_range(0..n);
        if u == v || deg[u] >= delta || deg[v] >= delta {
            continue;
        }
        if b.add_edge(NodeId::from_index(u), NodeId::from_index(v)) {
            deg[u] += 1;
            deg[v] += 1;
        }
    }
    b.build()
}

/// A random graph in which every node has even degree: the union of
/// `cycle_count` random cycles (each a random permutation cycle over a random
/// subset of nodes), deduplicated. Node degrees stay even because overlapping
/// edges of distinct cycles are re-drawn.
pub fn random_even_degree(n: usize, cycle_count: usize, cycle_len: usize, seed: u64) -> Graph {
    assert!(cycle_len >= 3 && cycle_len <= n, "bad cycle length");
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let mut b = GraphBuilder::new(n);
    let mut placed = 0usize;
    let mut attempts = 0usize;
    'outer: while placed < cycle_count && attempts < cycle_count * 50 + 50 {
        attempts += 1;
        let mut nodes: Vec<usize> = (0..n).collect();
        nodes.shuffle(&mut rng);
        nodes.truncate(cycle_len);
        // Reject if any cycle edge already exists (would break even parity).
        for i in 0..cycle_len {
            let u = NodeId::from_index(nodes[i]);
            let v = NodeId::from_index(nodes[(i + 1) % cycle_len]);
            if b.has_edge(u, v) {
                continue 'outer;
            }
        }
        for i in 0..cycle_len {
            let u = NodeId::from_index(nodes[i]);
            let v = NodeId::from_index(nodes[(i + 1) % cycle_len]);
            b.add_edge(u, v);
        }
        placed += 1;
    }
    let g = b.build();
    debug_assert!(g.all_degrees_even());
    g
}

/// A random bipartite `d`-regular graph on `2 * side` nodes
/// (left nodes `0..side`, right nodes `side..2*side`), built from `d`
/// random perfect matchings with rejection on collisions.
///
/// # Panics
///
/// Panics if `d > side` (impossible) or if generation fails repeatedly
/// (astronomically unlikely for evaluation-scale parameters).
pub fn random_bipartite_regular(side: usize, d: usize, seed: u64) -> Graph {
    assert!(d <= side, "degree cannot exceed side size");
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    'retry: for _ in 0..50 {
        let mut b = GraphBuilder::new(2 * side);
        'matching: for _ in 0..d {
            // Draw a permutation, then repair collisions with existing
            // edges by random swaps.
            let mut perm: Vec<usize> = (0..side).collect();
            perm.shuffle(&mut rng);
            let collides = |b: &GraphBuilder, i: usize, p: usize| {
                b.has_edge(NodeId::from_index(i), NodeId::from_index(side + p))
            };
            for _ in 0..side * 200 {
                let bad: Vec<usize> = (0..side).filter(|&i| collides(&b, i, perm[i])).collect();
                if bad.is_empty() {
                    for (i, &p) in perm.iter().enumerate() {
                        b.add_edge(NodeId::from_index(i), NodeId::from_index(side + p));
                    }
                    continue 'matching;
                }
                let i = bad[rng.random_range(0..bad.len())];
                let j = rng.random_range(0..side);
                // Swap only if it does not break j.
                if !collides(&b, i, perm[j]) && !collides(&b, j, perm[i]) {
                    perm.swap(i, j);
                }
            }
            continue 'retry;
        }
        let g = b.build();
        debug_assert!(g.nodes().all(|v| g.degree(v) == d));
        return g;
    }
    panic!("failed to generate a random bipartite {d}-regular graph");
}

/// A random simple `d`-regular graph on `n` nodes, via the configuration
/// (stub-pairing) model: each node contributes `d` stubs, the stubs are
/// shuffled and paired in order, and a pair that would form a self-loop or
/// a duplicate edge is repaired by swapping its second stub with a random
/// not-yet-paired stub (restarting from a fresh shuffle when a pair cannot
/// be repaired).
///
/// # Panics
///
/// Panics if `d >= n`, if `n * d` is odd, or if generation fails
/// repeatedly (astronomically unlikely for evaluation-scale parameters).
pub fn random_regular(n: usize, d: usize, seed: u64) -> Graph {
    assert!(d < n, "degree must be below the node count");
    assert!((n * d).is_multiple_of(2), "n * d must be even");
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    'retry: for _ in 0..200 {
        let mut stubs: Vec<usize> = (0..n).flat_map(|v| std::iter::repeat_n(v, d)).collect();
        stubs.shuffle(&mut rng);
        let pairs = stubs.len() / 2;
        let mut b = GraphBuilder::new(n);
        for i in 0..pairs {
            let mut tries = 0;
            loop {
                let (u, v) = (stubs[2 * i], stubs[2 * i + 1]);
                if u != v && !b.has_edge(NodeId::from_index(u), NodeId::from_index(v)) {
                    b.add_edge(NodeId::from_index(u), NodeId::from_index(v));
                    break;
                }
                tries += 1;
                if tries > 200 || 2 * (i + 1) >= stubs.len() {
                    continue 'retry;
                }
                let j = rng.random_range(2 * (i + 1)..stubs.len());
                stubs.swap(2 * i + 1, j);
            }
        }
        let g = b.build();
        debug_assert!(g.nodes().all(|v| g.degree(v) == d));
        return g;
    }
    panic!("failed to generate a random {d}-regular graph on {n} nodes");
}

/// A random 3-colorable graph: nodes are split into three classes of the
/// given sizes and `m_target` random cross-class edges are added subject to
/// a maximum degree of `delta`. Returns the graph and the witness coloring
/// (values `0`, `1`, `2`).
pub fn random_tripartite(
    sizes: [usize; 3],
    delta: usize,
    m_target: usize,
    seed: u64,
) -> (Graph, Vec<u8>) {
    let n = sizes[0] + sizes[1] + sizes[2];
    let mut color = vec![0u8; n];
    color[sizes[0]..sizes[0] + sizes[1]].fill(1);
    color[sizes[0] + sizes[1]..].fill(2);
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let mut b = GraphBuilder::new(n);
    let mut deg = vec![0usize; n];
    let mut attempts = 0usize;
    while b.m() < m_target && attempts < m_target * 30 + 100 {
        attempts += 1;
        let u = rng.random_range(0..n);
        let v = rng.random_range(0..n);
        if u == v || color[u] == color[v] || deg[u] >= delta || deg[v] >= delta {
            continue;
        }
        if b.add_edge(NodeId::from_index(u), NodeId::from_index(v)) {
            deg[u] += 1;
            deg[v] += 1;
        }
    }
    (b.build(), color)
}

/// A random connected subgraph of a large torus — a convenient family with
/// sub-exponential growth and maximum degree 4 for Contribution 1.
pub fn random_torus_patch(w: usize, h: usize, keep: f64, seed: u64) -> Graph {
    let full = grid2d(w, h, true);
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let mut b = GraphBuilder::new(full.n());
    for (_, (u, v)) in full.edges() {
        if rng.random_range(0.0..1.0) < keep {
            b.add_edge(u, v);
        }
    }
    b.build()
}

/// The complete bipartite graph `K_{a,b}` (left nodes `0..a`).
pub fn complete_bipartite(a: usize, b: usize) -> Graph {
    let mut builder = GraphBuilder::new(a + b);
    for i in 0..a {
        for j in 0..b {
            builder.add_edge(NodeId::from_index(i), NodeId::from_index(a + j));
        }
    }
    builder.build()
}

/// The ladder graph: two paths of length `rungs` joined by rungs
/// (3-regular in the interior).
pub fn ladder(rungs: usize) -> Graph {
    assert!(rungs >= 1, "a ladder needs at least one rung");
    let mut b = GraphBuilder::new(2 * rungs);
    for i in 0..rungs {
        b.add_edge(NodeId::from_index(i), NodeId::from_index(rungs + i));
        if i + 1 < rungs {
            b.add_edge(NodeId::from_index(i), NodeId::from_index(i + 1));
            b.add_edge(
                NodeId::from_index(rungs + i),
                NodeId::from_index(rungs + i + 1),
            );
        }
    }
    b.build()
}

/// A uniformly random labeled tree on `n` nodes via a Prüfer sequence —
/// the canonical *exponential-growth-free but unbounded-degree-prone*
/// family; degrees concentrate around O(log n / log log n).
pub fn random_tree(n: usize, seed: u64) -> Graph {
    assert!(n >= 1);
    let mut b = GraphBuilder::new(n);
    if n == 1 {
        return b.build();
    }
    if n == 2 {
        b.add_edge(NodeId(0), NodeId(1));
        return b.build();
    }
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let prufer: Vec<usize> = (0..n - 2).map(|_| rng.random_range(0..n)).collect();
    let mut degree = vec![1usize; n];
    for &p in &prufer {
        degree[p] += 1;
    }
    let mut ptr = 0usize; // smallest index with degree 1 not yet used
    let mut leaf = usize::MAX;
    for &p in &prufer {
        let l = if leaf != usize::MAX {
            leaf
        } else {
            while degree[ptr] != 1 {
                ptr += 1;
            }
            ptr
        };
        b.add_edge(NodeId::from_index(l), NodeId::from_index(p));
        degree[l] -= 1;
        degree[p] -= 1;
        leaf = if degree[p] == 1 && p < ptr {
            p
        } else {
            usize::MAX
        };
    }
    // Join the final two degree-1 nodes.
    let remaining: Vec<usize> = (0..n).filter(|&v| degree[v] == 1).collect();
    debug_assert_eq!(remaining.len(), 2);
    b.add_edge(
        NodeId::from_index(remaining[0]),
        NodeId::from_index(remaining[1]),
    );
    b.build()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::traversal;

    #[test]
    fn cycle_is_two_regular() {
        let g = cycle(12);
        assert!(g.nodes().all(|v| g.degree(v) == 2));
        assert!(traversal::is_connected(&g));
    }

    #[test]
    #[should_panic(expected = "at least 3")]
    fn tiny_cycle_panics() {
        cycle(2);
    }

    #[test]
    fn path_endpoints() {
        let g = path(5);
        assert_eq!(g.degree(NodeId(0)), 1);
        assert_eq!(g.degree(NodeId(4)), 1);
        assert_eq!(g.degree(NodeId(2)), 2);
    }

    #[test]
    fn complete_graph_edge_count() {
        let g = complete(6);
        assert_eq!(g.m(), 15);
        assert_eq!(g.max_degree(), 5);
    }

    #[test]
    fn star_shape() {
        let g = star(7);
        assert_eq!(g.degree(NodeId(0)), 7);
        assert_eq!(g.n(), 8);
    }

    #[test]
    fn grid_and_torus() {
        let g = grid2d(4, 5, false);
        assert_eq!(g.n(), 20);
        assert_eq!(g.m(), 4 * 4 + 3 * 5); // vertical + horizontal
        let t = grid2d(4, 5, true);
        assert!(t.nodes().all(|v| t.degree(v) == 4));
        assert_eq!(t.m(), 2 * 20);
    }

    #[test]
    fn hypercube_regular() {
        let g = hypercube(4);
        assert_eq!(g.n(), 16);
        assert!(g.nodes().all(|v| g.degree(v) == 4));
        assert_eq!(traversal::diameter(&g), Some(4));
    }

    #[test]
    fn balanced_tree_sizes() {
        let g = balanced_tree(2, 3);
        assert_eq!(g.n(), 15);
        assert_eq!(g.m(), 14);
        assert_eq!(g.degree(NodeId(0)), 2);
    }

    #[test]
    fn caterpillar_shape() {
        let g = caterpillar(4, 2);
        assert_eq!(g.n(), 12);
        assert_eq!(g.degree(NodeId(1)), 4); // two spine neighbors + two legs
    }

    #[test]
    fn random_bounded_degree_respects_delta() {
        let g = random_bounded_degree(200, 5, 400, 42);
        assert!(g.max_degree() <= 5);
        assert!(g.m() > 300, "generator should reach most of its target");
        // Determinism.
        let g2 = random_bounded_degree(200, 5, 400, 42);
        assert_eq!(g, g2);
    }

    #[test]
    fn random_even_degree_is_even() {
        let g = random_even_degree(60, 8, 10, 7);
        assert!(g.all_degrees_even());
        assert!(g.m() > 0);
    }

    #[test]
    fn random_bipartite_regular_is_regular_and_bipartite() {
        let g = random_bipartite_regular(20, 4, 3);
        assert!(g.nodes().all(|v| g.degree(v) == 4));
        for (_, (u, v)) in g.edges() {
            assert!((u.index() < 20) != (v.index() < 20));
        }
    }

    #[test]
    fn random_regular_is_regular_simple_and_deterministic() {
        for (n, d) in [(10, 3), (25, 4), (60, 3), (16, 6)] {
            let g = random_regular(n, d, 7);
            assert_eq!(g.n(), n);
            assert!(g.nodes().all(|v| g.degree(v) == d), "n={n} d={d}");
            // Simplicity: the m() dedup plus degree check already rules out
            // duplicates; rule out self-loops explicitly.
            for (_, (u, v)) in g.edges() {
                assert_ne!(u, v);
            }
            assert_eq!(g.m(), n * d / 2);
        }
        let a = random_regular(40, 4, 123);
        let b = random_regular(40, 4, 123);
        let c = random_regular(40, 4, 124);
        assert_eq!(a.edges().collect::<Vec<_>>(), b.edges().collect::<Vec<_>>());
        assert_ne!(a.edges().collect::<Vec<_>>(), c.edges().collect::<Vec<_>>());
    }

    #[test]
    #[should_panic(expected = "must be even")]
    fn random_regular_rejects_odd_stub_count() {
        let _ = random_regular(5, 3, 1);
    }

    #[test]
    fn random_tripartite_is_properly_colored() {
        let (g, color) = random_tripartite([30, 30, 30], 6, 150, 11);
        for (_, (u, v)) in g.edges() {
            assert_ne!(color[u.index()], color[v.index()]);
        }
        assert!(g.max_degree() <= 6);
    }

    #[test]
    fn torus_patch_bounded() {
        let g = random_torus_patch(10, 10, 0.8, 1);
        assert!(g.max_degree() <= 4);
    }

    #[test]
    fn disjoint_union_preserves_structure() {
        let g = disjoint_union(&[complete(3), complete(4)]);
        assert_eq!(g.n(), 7);
        assert_eq!(g.m(), 3 + 6);
        assert!(!g.has_edge(NodeId(0), NodeId(3)));
    }

    #[test]
    fn complete_bipartite_shape() {
        let g = complete_bipartite(3, 4);
        assert_eq!(g.n(), 7);
        assert_eq!(g.m(), 12);
        assert_eq!(g.degree(NodeId(0)), 4);
        assert_eq!(g.degree(NodeId(5)), 3);
    }

    #[test]
    fn ladder_shape() {
        let g = ladder(5);
        assert_eq!(g.n(), 10);
        assert_eq!(g.m(), 5 + 2 * 4);
        assert_eq!(g.max_degree(), 3);
        assert!(traversal::is_connected(&g));
    }

    #[test]
    fn random_tree_is_a_tree() {
        for seed in 0..10 {
            for n in [1usize, 2, 3, 10, 50] {
                let g = random_tree(n, seed);
                assert_eq!(g.n(), n);
                assert_eq!(g.m(), n.saturating_sub(1));
                assert!(traversal::is_connected(&g), "n={n} seed={seed}");
            }
        }
        // Determinism + variety.
        assert_eq!(random_tree(30, 4), random_tree(30, 4));
        assert_ne!(random_tree(30, 4), random_tree(30, 5));
    }
}
