//! Contribution 5 (Section 6): Δ-coloring of Δ-colorable graphs with
//! sparse advice.
//!
//! The pipeline mirrors the paper's three steps:
//!
//! 1. **Cluster coloring** ([`ClusterColoringSchema`]) yields a proper
//!    `(Δ+1)`-coloring `χ₁` from sparse cluster-center advice. The
//!    encoder, which sees the whole graph, computes `χ₁` centrally (greedy
//!    over the global order `(color of own cluster, UID)`); the decoder
//!    replays that greedy locally from the advice. A unit test in
//!    `cluster_coloring` pins that the two agree.
//! 2. **Advice-free local repair**: the color-`Δ` class of `χ₁` is an
//!    independent set, so every such node may simultaneously grab a free
//!    color `< Δ` if one exists in its neighborhood — one round, no
//!    coordination.
//! 3. **Shift-path repair with advice** (the Panconesi–Srinivasan step):
//!    the few nodes left with a full rainbow neighborhood need global
//!    recoloring chains. The paper pins those chains with relay advice;
//!    we use the equivalent *difference encoding*: the encoder computes a
//!    true Δ-coloring `χ*` by centralized augmenting-region search,
//!    checks it, and stores `χ*(v)` at exactly the nodes where `χ*`
//!    differs from the deterministic outcome of steps 1–2. The decoder
//!    replays steps 1–2 (deterministically identical) and applies the
//!    overrides.
//!
//! Step 3's advice is concentrated on the repair regions; its measured
//! size is reported by experiment E5. This is the one place where we are
//! coarser than the paper, whose relay construction additionally bounds
//! the bit-holders per `α`-ball by a constant — see DESIGN.md §4.

use crate::advice::AdviceMap;
use crate::bits::{bit_width, BitReader, BitString};
use crate::cluster_coloring::ClusterColoringSchema;
use crate::error::{DecodeError, EncodeError};
use crate::schema::AdviceSchema;
use crate::tracks::{demultiplex, multiplex};
use lad_graph::{coloring, traversal, Graph, InducedSubgraph, NodeId};
use lad_lcl::brute::{complete, CompleteError, Region};
use lad_lcl::problems::ProperColoring;
use lad_runtime::{Network, RoundStats, Run};

/// The Δ-coloring schema (Contribution 5).
///
/// # Example
///
/// ```
/// use lad_core::delta_coloring::DeltaColoringSchema;
/// use lad_core::schema::AdviceSchema;
/// use lad_graph::{coloring, generators};
/// use lad_runtime::Network;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// // A 3-colorable graph with max degree 5 is certainly 5-colorable.
/// let (g, _) = generators::random_tripartite([30, 30, 30], 5, 170, 2);
/// let delta = g.max_degree();
/// let net = Network::with_identity_ids(g);
/// let schema = DeltaColoringSchema::default();
/// let advice = schema.encode(&net)?;
/// let (colors, _) = schema.decode(&net, &advice)?;
/// assert!(coloring::is_proper_k_coloring(net.graph(), &colors, delta));
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DeltaColoringSchema {
    /// The stage-1 sub-schema.
    pub cluster: ClusterColoringSchema,
    /// Step budget for each augmenting-region search.
    pub repair_cap: u64,
    /// Largest repair-region radius tried before falling back to a global
    /// search.
    pub max_repair_radius: usize,
}

impl Default for DeltaColoringSchema {
    fn default() -> Self {
        DeltaColoringSchema {
            cluster: ClusterColoringSchema::default(),
            repair_cap: 2_000_000,
            max_repair_radius: 6,
        }
    }
}

impl DeltaColoringSchema {
    /// Step 2: simultaneous advice-free repair of the independent color-`Δ`
    /// class. Deterministic; shared by encoder and decoder.
    pub fn local_fix(g: &Graph, delta: usize, chi: &[usize]) -> Vec<usize> {
        let mut out = chi.to_vec();
        for v in g.nodes() {
            if chi[v.index()] != delta {
                continue;
            }
            let mut used = vec![false; delta];
            for &u in g.neighbors(v) {
                // Neighbors of a color-Δ node never have color Δ (proper
                // coloring), so their colors are stable under this step.
                let c = chi[u.index()];
                if c < delta {
                    used[c] = true;
                }
            }
            if let Some(free) = (0..delta).find(|&c| !used[c]) {
                out[v.index()] = free;
            }
        }
        out
    }

    /// Repairs every stuck node of one connected component, mutating `chi`
    /// in place. Kempe chains and augmenting regions never leave the
    /// component, so components are independent work items.
    fn repair_component(
        &self,
        g: &Graph,
        uids: &[u64],
        delta: usize,
        chi: &mut [usize],
        stuck: &[NodeId],
    ) -> ComponentOutcome {
        let lcl = ProperColoring::new(delta);
        // Exact-region probe memo: `complete` is a deterministic function
        // of the index-labeled region (`ProperColoring` never reads uids),
        // so stuck nodes whose induced regions serialize identically —
        // same local edges, boundary pins, and clipped degrees — share one
        // search outcome, including `NoSolution` ladder rungs. The key is
        // the exact local structure rather than a canonical class because
        // the lexicographically-first completion is index-order-sensitive:
        // class-sharing across differently-ordered regions would return a
        // differently-labeled completion and break encoder bit-identity.
        let mut probe_memo: std::collections::HashMap<Vec<u64>, Result<Vec<usize>, CompleteError>> =
            std::collections::HashMap::new();
        for &u in stuck {
            if chi[u.index()] < delta {
                continue; // fixed by an earlier region
            }
            // Fast path: Kempe-chain / shift-path recoloring, the actual
            // Panconesi–Srinivasan move (Section 6.2).
            if crate::kempe::recolor_vertex(g, chi, u, delta) {
                continue;
            }
            let mut repaired = false;
            for radius in 1..=self.max_repair_radius {
                // Region: the (radius+1)-ball; interior (≤ radius) is
                // free, the boundary ring is pinned to current colors.
                let ball_nodes: Vec<(NodeId, usize)> = traversal::ball(g, u, radius + 1);
                let members: Vec<NodeId> = ball_nodes.iter().map(|&(v, _)| v).collect();
                let sub = InducedSubgraph::new(g, &members);
                let sg = sub.graph();
                let sub_uids: Vec<u64> = sub
                    .original_nodes()
                    .iter()
                    .map(|v| uids[v.index()])
                    .collect();
                let true_degree: Vec<usize> =
                    sub.original_nodes().iter().map(|v| g.degree(*v)).collect();
                let mut pins: Vec<Option<usize>> = vec![None; sg.n()];
                let mut check_nodes = Vec::new();
                for &(v, d) in &ball_nodes {
                    let lv = sub.to_local(v).expect("member");
                    if d > radius {
                        pins[lv.index()] = Some(chi[v.index()]);
                    } else {
                        check_nodes.push(lv);
                    }
                }
                let mut key: Vec<u64> = Vec::with_capacity(1 + 2 * sg.m() + 2 * sg.n());
                key.push(sg.n() as u64);
                for e in sg.edge_ids() {
                    let (a, b) = sg.endpoints(e);
                    key.push(a.index() as u64);
                    key.push(b.index() as u64);
                }
                for lv in sg.nodes() {
                    key.push(true_degree[lv.index()] as u64);
                    key.push(pins[lv.index()].map_or(0, |c| c as u64 + 1));
                }
                let outcome = match probe_memo.get(&key) {
                    Some(cached) => cached.clone(),
                    None => {
                        let fresh = complete(
                            Region {
                                graph: sg,
                                uids: &sub_uids,
                                true_degree: &true_degree,
                                node_inputs: &[],
                            },
                            &lcl,
                            &pins,
                            &vec![None; sg.m()],
                            &check_nodes,
                            self.repair_cap,
                        )
                        .map(|(labels, _)| labels);
                        probe_memo.insert(key, fresh.clone());
                        fresh
                    }
                };
                match outcome {
                    Ok(labels) => {
                        for lv in sg.nodes() {
                            chi[sub.to_original(lv).index()] = labels[lv.index()];
                        }
                        repaired = true;
                        break;
                    }
                    Err(CompleteError::NoSolution) => continue, // grow region
                    Err(CompleteError::CapExceeded { cap }) => {
                        return ComponentOutcome::Failed(
                            u.index(),
                            EncodeError::SearchBudgetExceeded(format!(
                                "region repair at {u} exceeded {cap} steps"
                            )),
                        )
                    }
                }
            }
            if !repaired {
                return ComponentOutcome::NeedsGlobalFallback(u.index());
            }
        }
        ComponentOutcome::Completed
    }

    /// Centralized augmenting-region repair: turns `chi` (proper, colors
    /// `≤ Δ`) into a Δ-coloring, changing as few nodes as possible
    /// regionally. The caller checks that the result is proper.
    ///
    /// Stuck nodes are grouped by connected component and the components
    /// fan out across workers. Every repair move (Kempe chain, augmenting
    /// region, [`complete`] call) is confined to one component and the
    /// sequential pass visits stuck nodes in node order, so each worker's
    /// per-component replay sees exactly the colors the sequential pass
    /// would; merging takes the *smallest-node-index* special event
    /// (budget error or global fallback) — precisely the one a sequential
    /// pass would hit first — making the result bit-identical to the
    /// sequential repair for every outcome.
    fn repair_to_delta(
        &self,
        g: &Graph,
        uids: &[u64],
        delta: usize,
        chi: &[usize],
        run: &Run,
    ) -> Result<Vec<usize>, EncodeError> {
        let stuck: Vec<NodeId> = g.nodes().filter(|&v| chi[v.index()] >= delta).collect();
        if stuck.is_empty() {
            return Ok(chi.to_vec());
        }
        // Group stuck nodes by component, preserving node order per group.
        let (comp_of, comp_count) = traversal::connected_components(g);
        let mut groups: Vec<Vec<NodeId>> = vec![Vec::new(); comp_count];
        for &u in &stuck {
            groups[comp_of[u.index()]].push(u);
        }
        groups.retain(|grp| !grp.is_empty());
        let results: Vec<(Vec<usize>, ComponentOutcome)> = run.map(&groups, |_, grp| {
            let mut local = chi.to_vec();
            let outcome = self.repair_component(g, uids, delta, &mut local, grp);
            (local, outcome)
        });
        // The first special event in node order is what a sequential pass
        // would have hit; replay it. Otherwise merge all component diffs.
        let mut first_event: Option<(usize, usize)> = None; // (node idx, group idx)
        for (gi, (_, outcome)) in results.iter().enumerate() {
            let at = match outcome {
                ComponentOutcome::Completed => continue,
                ComponentOutcome::NeedsGlobalFallback(at) => *at,
                ComponentOutcome::Failed(at, _) => *at,
            };
            if first_event.is_none_or(|(best, _)| at < best) {
                first_event = Some((at, gi));
            }
        }
        if let Some((_, gi)) = first_event {
            match &results[gi].1 {
                ComponentOutcome::Failed(_, e) => return Err(e.clone()),
                ComponentOutcome::NeedsGlobalFallback(_) => {
                    // Global fallback: full search pinned nowhere — it
                    // ignores `chi` entirely, so replaying it here returns
                    // exactly what the sequential pass would.
                    let lcl = ProperColoring::new(delta);
                    let uids_all = uids.to_vec();
                    let (labels, _) = lad_lcl::brute::solve(g, &uids_all, &lcl, self.repair_cap)
                        .map_err(|e| match e {
                            CompleteError::NoSolution => {
                                EncodeError::SolutionDoesNotExist("graph is not Δ-colorable".into())
                            }
                            CompleteError::CapExceeded { cap } => {
                                EncodeError::SearchBudgetExceeded(format!(
                                    "global Δ-coloring search exceeded {cap} steps"
                                ))
                            }
                        })?;
                    return Ok(labels);
                }
                ComponentOutcome::Completed => unreachable!("events are non-Completed"),
            }
        }
        let mut merged = chi.to_vec();
        for (local, _) in &results {
            for (i, (&new, &old)) in local.iter().zip(chi.iter()).enumerate() {
                if new != old {
                    merged[i] = new;
                }
            }
        }
        Ok(merged)
    }
}

/// What happened while repairing one connected component.
enum ComponentOutcome {
    /// All of the component's stuck nodes were repaired regionally.
    Completed,
    /// The stuck node at this index exhausted every region radius; a
    /// sequential pass would start the global fallback search there.
    NeedsGlobalFallback(usize),
    /// The stuck node at this index exceeded the search budget.
    Failed(usize, EncodeError),
}

impl AdviceSchema for DeltaColoringSchema {
    type Output = Vec<usize>;

    fn name(&self) -> String {
        format!("delta-coloring({})", self.cluster.name())
    }

    fn encode_with(&self, net: &Network, run: &Run) -> Result<AdviceMap, EncodeError> {
        let g = net.graph();
        let uids = net.uids();
        let delta = g.max_degree();
        if delta == 0 {
            return Ok(AdviceMap::empty(g.n()));
        }
        // Stage 1: the cluster advice and the coloring χ₁ it decodes to,
        // computed centrally rather than by running the LOCAL decoder.
        let (cluster_advice, chi1) = self.cluster.encode_with_coloring(net, run)?;
        if !coloring::is_proper_coloring(g, &chi1) {
            return Err(EncodeError::PlacementFailed(
                "stage-1 cluster coloring is improper".into(),
            ));
        }
        // Stage 2: deterministic local fix.
        let chi2 = Self::local_fix(g, delta, &chi1);
        // Stage 3: centralized repair and difference encoding. Both repair
        // branches (regional and global fallback) end in this one check.
        let chi_star = self.repair_to_delta(g, uids, delta, &chi2, run)?;
        if !coloring::is_proper_k_coloring(g, &chi_star, delta) {
            return Err(EncodeError::PlacementFailed(
                "repaired coloring is not a proper Δ-coloring".into(),
            ));
        }
        let width = bit_width(delta);
        // Packed once via `from_strings`: per-node `set` calls would shift
        // the arena tail on every insertion (quadratic when the global
        // fallback rewrites a constant fraction of the coloring).
        let overrides = AdviceMap::from_strings(
            g.nodes()
                .map(|v| {
                    let mut bits = BitString::new();
                    if chi_star[v.index()] != chi2[v.index()] {
                        bits.push_uint(chi_star[v.index()] as u64, width);
                    }
                    bits
                })
                .collect(),
        );
        Ok(multiplex(&[&cluster_advice, &overrides]))
    }

    fn decode_with(
        &self,
        net: &Network,
        advice: &AdviceMap,
        run: &Run,
    ) -> Result<(Vec<usize>, RoundStats), DecodeError> {
        let g = net.graph();
        if advice.n() != g.n() {
            return Err(DecodeError::Inconsistent(
                "advice covers a different node count".into(),
            ));
        }
        let delta = g.max_degree();
        if delta == 0 {
            return Ok((vec![0; g.n()], RoundStats::zero(g.n())));
        }
        let tracks = demultiplex(advice, 2).ok_or_else(|| {
            DecodeError::Inconsistent("advice does not split into two tracks".into())
        })?;
        let (chi1, stats1) = self.cluster.decode_with(net, &tracks[0], run)?;
        // Step 2 costs one round (each node reads its neighbors' χ₁).
        // Every node requests exactly radius 1 unconditionally, so the
        // stats are a constant — materializing n balls just to record
        // them would dominate the decode at scale.
        let chi2 = Self::local_fix(g, delta, &chi1);
        let one_round = RoundStats::from_per_node(vec![1; g.n()]);
        // Step 3 overrides cost zero rounds (each node reads its own bits).
        let width = bit_width(delta);
        let mut colors = chi2;
        for v in g.nodes() {
            let bits = tracks[1].get(v);
            if bits.is_empty() {
                continue;
            }
            if bits.len() != width {
                return Err(DecodeError::malformed(v, "override has the wrong width"));
            }
            let mut r = BitReader::new(&bits);
            let c = r.read_uint(width).expect("width checked") as usize;
            if c >= delta {
                return Err(DecodeError::malformed(v, "override color out of range"));
            }
            colors[v.index()] = c;
        }
        if !coloring::is_proper_k_coloring(g, &colors, delta) {
            return Err(DecodeError::InvalidOutput(
                "decoded Δ-coloring is improper".into(),
            ));
        }
        Ok((colors, stats1.sequential(&one_round)))
    }
}

/// Statistics on the stage-3 difference encoding, reported by E5.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OverrideStats {
    /// Nodes carrying an override.
    pub override_nodes: usize,
    /// Total override bits.
    pub override_bits: usize,
}

/// Measures how much stage-3 advice a Δ-coloring encoding used.
pub fn override_stats(schema: &DeltaColoringSchema, net: &Network) -> Option<OverrideStats> {
    let advice = schema.encode(net).ok()?;
    let tracks = demultiplex(&advice, 2)?;
    Some(OverrideStats {
        override_nodes: tracks[1].holders().count(),
        override_bits: tracks[1].total_bits(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use lad_graph::generators;

    fn check(net: &Network, schema: &DeltaColoringSchema) -> RoundStats {
        let delta = net.graph().max_degree();
        let advice = schema.encode(net).expect("encode");
        let (colors, stats) = schema.decode(net, &advice).expect("decode");
        assert!(
            coloring::is_proper_k_coloring(net.graph(), &colors, delta),
            "not a proper Δ-coloring"
        );
        stats
    }

    #[test]
    fn even_cycle_delta_two() {
        let net = Network::with_identity_ids(generators::cycle(60));
        check(&net, &DeltaColoringSchema::default());
    }

    #[test]
    fn tripartite_with_slack() {
        for seed in 0..4 {
            let (g, _) = generators::random_tripartite([25, 25, 25], 5, 140, seed);
            if g.max_degree() < 3 {
                continue;
            }
            let net = Network::with_identity_ids(g);
            check(&net, &DeltaColoringSchema::default());
        }
    }

    #[test]
    fn grid_delta_four() {
        // Grids are 2-colorable, so 4-coloring certainly exists.
        let net = Network::with_identity_ids(generators::grid2d(8, 8, false));
        check(&net, &DeltaColoringSchema::default());
    }

    #[test]
    fn torus_delta_four() {
        let net = Network::with_identity_ids(generators::grid2d(8, 8, true));
        check(&net, &DeltaColoringSchema::default());
    }

    #[test]
    fn rejects_clique() {
        // K4 has Δ = 3 but needs 4 colors.
        let net = Network::with_identity_ids(generators::complete(4));
        let err = DeltaColoringSchema::default().encode(&net).unwrap_err();
        assert!(matches!(
            err,
            EncodeError::SolutionDoesNotExist(_) | EncodeError::SearchBudgetExceeded(_)
        ));
    }

    #[test]
    fn local_fix_shrinks_top_class() {
        let g = generators::grid2d(6, 6, false);
        let delta = g.max_degree();
        let uids: Vec<u64> = (1..=36).collect();
        let order: Vec<NodeId> = g.nodes().collect();
        let mut chi = coloring::greedy_coloring(&g, &order);
        // Force some nodes to the top color artificially (keep proper).
        for v in g.nodes() {
            let used: Vec<usize> = g.neighbors(v).iter().map(|u| chi[u.index()]).collect();
            if !used.contains(&delta) && chi[v.index()] != delta && v.index() % 7 == 0 {
                chi[v.index()] = delta;
            }
        }
        assert!(coloring::is_proper_coloring(&g, &chi));
        let fixed = DeltaColoringSchema::local_fix(&g, delta, &chi);
        assert!(coloring::is_proper_coloring(&g, &fixed));
        let before = chi.iter().filter(|&&c| c == delta).count();
        let after = fixed.iter().filter(|&&c| c == delta).count();
        assert!(after <= before);
        let _ = uids;
    }

    #[test]
    fn override_stats_are_small() {
        let (g, _) = generators::random_tripartite([20, 20, 20], 5, 120, 8);
        let n = g.n();
        let net = Network::with_identity_ids(g);
        let schema = DeltaColoringSchema::default();
        let stats = override_stats(&schema, &net).expect("encoding succeeds");
        // The difference encoding touches far fewer nodes than n.
        assert!(stats.override_nodes * 4 < n, "{stats:?}");
    }

    #[test]
    fn edgeless_decode_checks_the_advice_size() {
        let schema = DeltaColoringSchema::default();
        let short = AdviceMap::empty(3);
        for g in [
            lad_graph::GraphBuilder::new(5).build(),
            generators::cycle(6),
        ] {
            let net = Network::with_identity_ids(g);
            assert!(
                matches!(
                    schema.decode(&net, &short),
                    Err(DecodeError::Inconsistent(_))
                ),
                "advice for 3 nodes accepted on {} nodes",
                net.graph().n()
            );
        }
        let net = Network::with_identity_ids(lad_graph::GraphBuilder::new(5).build());
        let advice = schema.encode(&net).expect("encode");
        let (colors, stats) = schema.decode(&net, &advice).expect("decode");
        assert_eq!(colors, vec![0; 5]);
        assert_eq!(stats, RoundStats::zero(5));
    }

    #[test]
    fn decoder_rejects_bad_override() {
        let net = Network::with_identity_ids(generators::grid2d(6, 6, false));
        let schema = DeltaColoringSchema::default();
        let advice = schema.encode(&net).unwrap();
        let tracks = demultiplex(&advice, 2).unwrap();
        // Give one node a conflicting override.
        let mut bad = tracks[1].clone();
        let mut bits = BitString::new();
        bits.push_uint(0, bit_width(net.graph().max_degree()));
        bad.set(NodeId(0), bits.clone());
        bad.set(NodeId(1), bits);
        let tampered = multiplex(&[&tracks[0], &bad]);
        match schema.decode(&net, &tampered) {
            Err(_) => {}
            Ok((colors, _)) => {
                assert!(coloring::is_proper_coloring(net.graph(), &colors));
            }
        }
    }
}
