//! Section 5 extensions: the splitting schema on bipartite even-degree
//! graphs, and Δ-edge-coloring of bipartite Δ-regular graphs (Δ a power of
//! two) by recursive splitting.
//!
//! *Splitting* asks for a red/blue edge coloring with equally many red and
//! blue edges at every node. Following the paper's running example
//! (Section 3.5): given a balanced orientation (Contribution 3) and a
//! 2-coloring of the nodes, color red the edges oriented out of white
//! nodes and blue the edges oriented out of black nodes. Both ingredients
//! are themselves advice schemas:
//!
//! - the orientation track is the [`BalancedOrientationSchema`]'s advice;
//! - the 2-coloring track marks a ruling set of nodes with their color in
//!   a globally consistent bipartition; every other node recovers its
//!   color from the parity of its distance to the nearest marked node
//!   (valid precisely because the graph is bipartite).
//!
//! The two tracks are composed with [`crate::tracks::multiplex`] — this is
//! the paper's Lemma-1 composition in action.
//!
//! Applying splitting recursively `log₂ Δ` times yields a proper
//! Δ-edge-coloring of a bipartite Δ-regular graph: each split halves the
//! regular degree, and the color of an edge is the path it takes down the
//! recursion tree (Corollaries 5.9–5.10).

use crate::advice::AdviceMap;
use crate::balanced::BalancedOrientationSchema;
use crate::bits::BitString;
use crate::error::{DecodeError, EncodeError};
use crate::schema::AdviceSchema;
use crate::tracks::{demultiplex, multiplex};
use lad_graph::{coloring, ruling, Graph, GraphBuilder, NodeId};
use lad_runtime::{Network, RoundStats, Run};

/// The splitting schema: balanced red/blue edge coloring of a bipartite
/// graph with all degrees even.
///
/// Output: one label per edge, `0` = red, `1` = blue.
///
/// # Example
///
/// ```
/// use lad_core::schema::AdviceSchema;
/// use lad_core::splitting::SplittingSchema;
/// use lad_graph::generators;
/// use lad_runtime::Network;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let net = Network::with_identity_ids(generators::random_bipartite_regular(24, 4, 1));
/// let schema = SplittingSchema::default();
/// let advice = schema.encode(&net)?;
/// let (labels, _) = schema.decode(&net, &advice)?;
/// // Every node sees exactly half red, half blue.
/// let g = net.graph();
/// for v in g.nodes() {
///     let red = g.incident_edges(v).iter().filter(|e| labels[e.index()] == 0).count();
///     assert_eq!(red, g.degree(v) / 2);
/// }
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SplittingSchema {
    /// The balanced-orientation sub-schema.
    pub orientation: BalancedOrientationSchema,
    /// Parity anchors are a `(parity_spacing, parity_spacing − 1)`-ruling
    /// set; decoding the 2-coloring costs `parity_spacing` rounds.
    pub parity_spacing: usize,
}

impl Default for SplittingSchema {
    fn default() -> Self {
        SplittingSchema {
            orientation: BalancedOrientationSchema::default(),
            parity_spacing: 12,
        }
    }
}

impl SplittingSchema {
    /// A schema with explicit parameters.
    ///
    /// # Panics
    ///
    /// Panics if `parity_spacing` is zero.
    pub fn new(orientation: BalancedOrientationSchema, parity_spacing: usize) -> Self {
        assert!(parity_spacing >= 1);
        SplittingSchema {
            orientation,
            parity_spacing,
        }
    }

    /// Validates the preconditions and returns the witness bipartition.
    fn bipartition_of(g: &Graph) -> Result<Vec<u8>, EncodeError> {
        if !g.all_degrees_even() {
            return Err(EncodeError::Unsupported(
                "splitting requires all degrees even".into(),
            ));
        }
        coloring::bipartition(g)
            .ok_or_else(|| EncodeError::Unsupported("splitting requires a bipartite graph".into()))
    }
}

impl AdviceSchema for SplittingSchema {
    type Output = Vec<usize>;

    fn name(&self) -> String {
        format!(
            "splitting({}, parity={})",
            self.orientation.name(),
            self.parity_spacing
        )
    }

    fn encode_with(&self, net: &Network, run: &Run) -> Result<AdviceMap, EncodeError> {
        let g = net.graph();
        let chi = Self::bipartition_of(g)?;
        let orient_track = self.orientation.encode_with(net, run)?;
        // Parity track: mark a ruling set with its bipartition color.
        let mut parity_track = AdviceMap::empty(g.n());
        for r in ruling::ruling_set(g, self.parity_spacing) {
            parity_track.set(r, BitString::one_bit(chi[r.index()] == 1));
        }
        Ok(multiplex(&[&orient_track, &parity_track]))
    }

    fn decode_with(
        &self,
        net: &Network,
        advice: &AdviceMap,
        run: &Run,
    ) -> Result<(Vec<usize>, RoundStats), DecodeError> {
        let g = net.graph();
        let tracks = demultiplex(advice, 2).ok_or_else(|| {
            DecodeError::Inconsistent("advice does not split into two tracks".into())
        })?;
        let (orientation, stats_o) = self.orientation.decode_with(net, &tracks[0], run)?;
        // Recover the 2-coloring by parity to the nearest marked node.
        let advised = net.with_inputs(tracks[1].strings());
        let spacing = self.parity_spacing;
        let (colors, stats_p) = run.try_nodes(&advised, |ctx| {
            let ball = ctx.ball(spacing);
            let mut nearest: Option<(usize, u64, bool)> = None;
            for w in ball.graph().nodes() {
                let bits = ball.input(w);
                if bits.is_empty() {
                    continue;
                }
                if bits.len() != 1 {
                    return Err(DecodeError::malformed(
                        ball.global_node(w),
                        "parity track must be a single bit",
                    ));
                }
                let cand = (ball.dist(w), ball.uid(w), bits.get(0));
                if nearest.is_none_or(|(d, u, _)| (cand.0, cand.1) < (d, u)) {
                    nearest = Some(cand);
                }
            }
            let (d, _, bit) = nearest.ok_or_else(|| {
                DecodeError::malformed(
                    ball.global_node(ball.center()),
                    "no parity anchor within the spacing radius",
                )
            })?;
            // In a bipartite graph, color(v) = color(anchor) XOR parity of
            // any (in particular a shortest) path between them.
            Ok(bit ^ (d % 2 == 1))
        })?;
        // Red = oriented out of a white (color-0) node.
        let labels: Vec<usize> = g
            .edge_ids()
            .map(|e| {
                let tail = orientation.tail(g, e);
                usize::from(colors[tail.index()])
            })
            .collect();
        Ok((labels, stats_o.sequential(&stats_p)))
    }
}

/// Whether edge labels form a valid splitting (equal red/blue at every
/// node).
pub fn is_valid_splitting(g: &Graph, labels: &[usize]) -> bool {
    labels.len() == g.m()
        && g.nodes().all(|v| {
            let red = g
                .incident_edges(v)
                .iter()
                .filter(|e| labels[e.index()] == 0)
                .count();
            2 * red == g.degree(v)
        })
}

/// Δ-edge-coloring of bipartite Δ-regular graphs with Δ a power of two,
/// by recursive splitting (Corollaries 5.9–5.10).
///
/// Output: one color per edge in `0..Δ` forming a proper edge coloring.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EdgeColoringSchema {
    /// The splitting sub-schema applied at every recursion level.
    pub splitting: SplittingSchema,
}

impl EdgeColoringSchema {
    /// A schema with an explicit splitting sub-schema.
    pub fn new(splitting: SplittingSchema) -> Self {
        EdgeColoringSchema { splitting }
    }

    /// Validates the preconditions, returning Δ.
    fn check(g: &Graph) -> Result<usize, EncodeError> {
        let delta = g.max_degree();
        if delta == 0 || !delta.is_power_of_two() {
            return Err(EncodeError::Unsupported(format!(
                "Δ = {delta} is not a positive power of two"
            )));
        }
        if g.nodes().any(|v| g.degree(v) != delta) {
            return Err(EncodeError::Unsupported("graph is not regular".into()));
        }
        if coloring::bipartition(g).is_none() {
            return Err(EncodeError::Unsupported("graph is not bipartite".into()));
        }
        Ok(delta)
    }

    /// The recursion-tree instances in preorder: each entry is an
    /// edge-subgraph of `g` given as `(graph, edge map back to g)`.
    /// Built by *decoded* splittings so encoder and decoder stay in sync.
    fn instance_count(delta: usize) -> usize {
        // A full binary tree with delta/ leaves... levels: log2(delta)
        // internal levels; level i has 2^i instances needing advice.
        (1..=delta.trailing_zeros())
            .map(|i| 1usize << (i - 1))
            .sum()
    }
}

/// An edge-subgraph over the same node set, remembering edge origins.
#[derive(Debug, Clone)]
struct EdgeSubgraph {
    graph: Graph,
    /// For each local edge, the original edge index in the root graph.
    to_root: Vec<usize>,
}

fn edge_subgraph(root_n: usize, edges: &[(NodeId, NodeId, usize)]) -> EdgeSubgraph {
    let mut b = GraphBuilder::new(root_n);
    for &(u, v, _) in edges {
        b.add_edge(u, v);
    }
    let graph = b.build();
    // Builder sorts edges by endpoints; recover the mapping.
    let mut to_root = vec![usize::MAX; graph.m()];
    for &(u, v, root_e) in edges {
        let le = graph.edge_between(u, v).expect("edge was just added");
        to_root[le.index()] = root_e;
    }
    EdgeSubgraph { graph, to_root }
}

impl AdviceSchema for EdgeColoringSchema {
    type Output = Vec<usize>;

    fn name(&self) -> String {
        format!("delta-edge-coloring({})", self.splitting.name())
    }

    fn encode_with(&self, net: &Network, run: &Run) -> Result<AdviceMap, EncodeError> {
        let g = net.graph();
        let delta = Self::check(g)?;
        let n = g.n();
        // Process the recursion tree in BFS order, splitting each instance
        // with its own advice track.
        let root = edge_subgraph(
            n,
            &g.edges()
                .map(|(e, (u, v))| (u, v, e.index()))
                .collect::<Vec<_>>(),
        );
        let mut queue = vec![root];
        let mut tracks: Vec<AdviceMap> = Vec::new();
        while let Some(inst) = queue.pop() {
            if inst.graph.max_degree() <= 1 {
                continue;
            }
            let sub_net = Network::new(inst.graph.clone(), net.ids().clone(), vec![(); n]);
            let advice = self.splitting.encode_with(&sub_net, run)?;
            // Decode centrally to build the children exactly as the
            // decoder will.
            let (labels, _) = self
                .splitting
                .decode_with(&sub_net, &advice, run)
                .map_err(|e| EncodeError::PlacementFailed(format!("self-decode failed: {e}")))?;
            tracks.push(advice);
            for color in [0usize, 1] {
                let edges: Vec<(NodeId, NodeId, usize)> = inst
                    .graph
                    .edges()
                    .filter(|(e, _)| labels[e.index()] == color)
                    .map(|(e, (u, v))| (u, v, inst.to_root[e.index()]))
                    .collect();
                queue.insert(0, edge_subgraph(n, &edges));
            }
        }
        debug_assert_eq!(tracks.len(), Self::instance_count(delta));
        let refs: Vec<&AdviceMap> = tracks.iter().collect();
        Ok(multiplex(&refs))
    }

    fn decode_with(
        &self,
        net: &Network,
        advice: &AdviceMap,
        run: &Run,
    ) -> Result<(Vec<usize>, RoundStats), DecodeError> {
        let g = net.graph();
        let delta =
            Self::check(g).map_err(|e| DecodeError::Inconsistent(format!("precondition: {e}")))?;
        let n = g.n();
        let count = Self::instance_count(delta);
        let tracks = demultiplex(advice, count).ok_or_else(|| {
            DecodeError::Inconsistent(format!("advice does not split into {count} tracks"))
        })?;
        let root = edge_subgraph(
            n,
            &g.edges()
                .map(|(e, (u, v))| (u, v, e.index()))
                .collect::<Vec<_>>(),
        );
        let mut colors = vec![0usize; g.m()];
        let mut queue = vec![root];
        let mut track_iter = tracks.iter();
        let mut total_stats: Option<RoundStats> = None;
        while let Some(inst) = queue.pop() {
            if inst.graph.max_degree() <= 1 {
                continue;
            }
            let sub_net = Network::new(inst.graph.clone(), net.ids().clone(), vec![(); n]);
            let track = track_iter
                .next()
                .ok_or_else(|| DecodeError::Inconsistent("missing advice track".into()))?;
            let (labels, stats) = self.splitting.decode_with(&sub_net, track, run)?;
            total_stats = Some(match total_stats {
                None => stats,
                Some(t) => t.sequential(&stats),
            });
            for color in [0usize, 1] {
                let edges: Vec<(NodeId, NodeId, usize)> = inst
                    .graph
                    .edges()
                    .filter(|(e, _)| labels[e.index()] == color)
                    .map(|(e, (u, v))| (u, v, inst.to_root[e.index()]))
                    .collect();
                // Shift the root-edge colors: this split contributes one bit.
                for &(_, _, root_e) in &edges {
                    colors[root_e] = (colors[root_e] << 1) | color;
                }
                queue.insert(0, edge_subgraph(n, &edges));
            }
        }
        let stats =
            total_stats.ok_or_else(|| DecodeError::Inconsistent("degenerate recursion".into()))?;
        Ok((colors, stats))
    }
}

/// Whether edge colors form a proper edge coloring with colors `< k`.
pub fn is_proper_edge_coloring(g: &Graph, colors: &[usize], k: usize) -> bool {
    colors.len() == g.m()
        && colors.iter().all(|&c| c < k)
        && g.nodes().all(|v| {
            let mut seen = vec![false; k];
            g.incident_edges(v).iter().all(|e| {
                let c = colors[e.index()];
                !std::mem::replace(&mut seen[c], true)
            })
        })
}

#[cfg(test)]
mod tests {
    use super::*;
    use lad_graph::generators;

    #[test]
    fn splitting_on_bipartite_regular() {
        for (side, d, seed) in [(20, 4, 1), (30, 6, 2), (16, 2, 3)] {
            let g = generators::random_bipartite_regular(side, d, seed);
            let net = Network::with_identity_ids(g);
            let schema = SplittingSchema::default();
            let advice = schema.encode(&net).unwrap();
            let (labels, _) = schema.decode(&net, &advice).unwrap();
            assert!(is_valid_splitting(net.graph(), &labels));
        }
    }

    #[test]
    fn splitting_on_even_cycle() {
        let net = Network::with_identity_ids(generators::cycle(40));
        let schema = SplittingSchema::default();
        let advice = schema.encode(&net).unwrap();
        let (labels, stats) = schema.decode(&net, &advice).unwrap();
        assert!(is_valid_splitting(net.graph(), &labels));
        assert!(stats.rounds() <= schema.orientation.decode_radius() + schema.parity_spacing);
    }

    #[test]
    fn splitting_rejects_odd_cycle() {
        let net = Network::with_identity_ids(generators::cycle(7));
        let err = SplittingSchema::default().encode(&net).unwrap_err();
        assert!(matches!(err, EncodeError::Unsupported(_)));
    }

    #[test]
    fn splitting_rejects_odd_degrees() {
        let net = Network::with_identity_ids(generators::star(3));
        let err = SplittingSchema::default().encode(&net).unwrap_err();
        assert!(matches!(err, EncodeError::Unsupported(_)));
    }

    #[test]
    fn splitting_is_local_on_large_even_cycle() {
        let schema = SplittingSchema::default();
        let mut rounds = Vec::new();
        for n in [100usize, 400] {
            let net = Network::with_identity_ids(generators::cycle(n));
            let advice = schema.encode(&net).unwrap();
            let (labels, stats) = schema.decode(&net, &advice).unwrap();
            assert!(is_valid_splitting(net.graph(), &labels));
            rounds.push(stats.rounds());
        }
        assert_eq!(rounds[0], rounds[1]);
    }

    #[test]
    fn edge_coloring_delta_4() {
        let g = generators::random_bipartite_regular(16, 4, 7);
        let net = Network::with_identity_ids(g);
        let schema = EdgeColoringSchema::default();
        let advice = schema.encode(&net).unwrap();
        let (colors, _) = schema.decode(&net, &advice).unwrap();
        assert!(is_proper_edge_coloring(net.graph(), &colors, 4));
    }

    #[test]
    fn edge_coloring_delta_8() {
        let g = generators::random_bipartite_regular(24, 8, 9);
        let net = Network::with_identity_ids(g);
        let schema = EdgeColoringSchema::default();
        let advice = schema.encode(&net).unwrap();
        let (colors, _) = schema.decode(&net, &advice).unwrap();
        assert!(is_proper_edge_coloring(net.graph(), &colors, 8));
    }

    #[test]
    fn edge_coloring_delta_2_is_cycle_splitting() {
        let net = Network::with_identity_ids(generators::cycle(24));
        let schema = EdgeColoringSchema::default();
        let advice = schema.encode(&net).unwrap();
        let (colors, _) = schema.decode(&net, &advice).unwrap();
        assert!(is_proper_edge_coloring(net.graph(), &colors, 2));
    }

    #[test]
    fn edge_coloring_rejects_non_power_of_two() {
        let g = generators::random_bipartite_regular(12, 3, 5);
        let net = Network::with_identity_ids(g);
        let err = EdgeColoringSchema::default().encode(&net).unwrap_err();
        assert!(matches!(err, EncodeError::Unsupported(_)));
    }

    #[test]
    fn instance_count_formula() {
        assert_eq!(EdgeColoringSchema::instance_count(2), 1);
        assert_eq!(EdgeColoringSchema::instance_count(4), 3);
        assert_eq!(EdgeColoringSchema::instance_count(8), 7);
        assert_eq!(EdgeColoringSchema::instance_count(16), 15);
    }
}
