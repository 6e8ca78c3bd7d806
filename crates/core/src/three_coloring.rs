//! Contribution 6 (Section 7): 3-coloring any 3-colorable graph with
//! exactly **one bit of advice per node**.
//!
//! # The encoding (following the paper)
//!
//! Fix a *greedy* proper 3-coloring `φ` with colors `{0, 1, 2}` (every
//! node of color `i` has neighbors of all colors `< i`; the paper's colors
//! `1, 2, 3`). Then:
//!
//! - every color-0 node gets bit `1` — these are the **type-1** bits;
//! - in every *large* connected component of the color-{1,2} subgraph
//!   `G_{2,3}`, a sparse set of **groups** of additional `1` bits pins the
//!   component's 2-coloring parity — the **type-23** bits.
//!
//! A lit node is of type 1 iff it has at most one lit neighbor: color-0
//! nodes form an independent set and (by the group-selection constraint
//! below) touch at most one group node, while every group node has at
//! least two lit neighbors — either two lit color-0 neighbors (a
//! "witness" node `w` from Lemma 7.2) or its group partner plus its own
//! color-0 neighbor (an adjacent pair `x, y` with no common color-0
//! neighbor).
//!
//! Each group is `S ∪ S′` (two Lemma-7.2 selections, mutually non-adjacent
//! and sharing no color-0 neighbor). With `s` the smallest-UID node of the
//! group: if `φ(s) = 1` only `s`'s own half is lit (the lit group has
//! **one** connected component); if `φ(s) = 2` both halves are lit
//! (**two** components). A decoder counts components, learns `φ(s)`, and
//! propagates by bipartite parity. Small components (diameter below a
//! threshold both sides compute) carry no group bits and are 2-colored
//! canonically.
//!
//! The paper selects the groups via the Lovász Local Lemma so that no
//! color-0 node touches two of them; we select greedily with a
//! Moser–Tardos fallback ([`crate::lll`]) and — since our encoder is a
//! program, not an existence proof — finish with a full central
//! self-decode check.

use crate::advice::AdviceMap;
use crate::error::{DecodeError, EncodeError};
use crate::lll::{moser_tardos, ConstraintSystem};
use crate::schema::AdviceSchema;
use lad_graph::{coloring, ruling, Graph, InducedSubgraph, NodeId};
use lad_lcl::witness::proper_coloring_witness;
use lad_runtime::{Ball, Network, RoundStats, Run};
use std::collections::VecDeque;

/// The 1-bit 3-coloring schema (Contribution 6).
///
/// Output colors are `{0, 1, 2}`.
///
/// # Example
///
/// ```
/// use lad_core::schema::AdviceSchema;
/// use lad_core::three_coloring::ThreeColoringSchema;
/// use lad_graph::{coloring, generators};
/// use lad_runtime::Network;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let (g, _) = generators::random_tripartite([40, 40, 40], 5, 200, 1);
/// let net = Network::with_identity_ids(g);
/// let schema = ThreeColoringSchema::default();
/// let advice = schema.encode(&net)?;
/// assert_eq!(advice.max_bits(), 1); // exactly one bit per node
/// let (colors, _) = schema.decode(&net, &advice)?;
/// assert!(coloring::is_proper_k_coloring(net.graph(), &colors, 3));
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ThreeColoringSchema {
    /// Components of `G_{2,3}` with diameter at most
    /// `max(small_diameter, 2Δ + 2)` carry no group bits.
    pub small_diameter: usize,
    /// Ruling-set spacing for group placement inside large components.
    pub group_spacing: usize,
    /// Group members lie within this component-distance of the group seed.
    pub group_extent: usize,
    /// Step budget for the brute-force 3-coloring witness (used only when
    /// greedy coloring needs more than 3 colors).
    pub witness_cap: u64,
}

impl Default for ThreeColoringSchema {
    fn default() -> Self {
        ThreeColoringSchema {
            small_diameter: 24,
            group_spacing: 48,
            group_extent: 16,
            witness_cap: 2_000_000,
        }
    }
}

impl ThreeColoringSchema {
    /// The effective small-component diameter threshold for max degree
    /// `delta` (both encoder and decoder use this).
    pub fn effective_small(&self, delta: usize) -> usize {
        self.small_diameter.max(2 * delta + 2)
    }

    /// The decoder's view radius for max degree `delta`.
    pub fn decode_radius(&self, delta: usize) -> usize {
        self.effective_small(delta)
            .max(self.group_spacing + self.group_extent + delta + 2)
            + 2
    }
}

// ---------------------------------------------------------------------------
// Component utilities on the color-{1,2} subgraph.
// ---------------------------------------------------------------------------

/// BFS distances within an induced node subset (`usize::MAX` = unreachable
/// or outside).
fn subset_distances(g: &Graph, inside: &[bool], from: NodeId) -> Vec<usize> {
    let mut dist = vec![usize::MAX; g.n()];
    if !inside[from.index()] {
        return dist;
    }
    dist[from.index()] = 0;
    let mut q = VecDeque::from([from]);
    while let Some(v) = q.pop_front() {
        for &u in g.neighbors(v) {
            if inside[u.index()] && dist[u.index()] == usize::MAX {
                dist[u.index()] = dist[v.index()] + 1;
                q.push_back(u);
            }
        }
    }
    dist
}

// ---------------------------------------------------------------------------
// Lemma 7.2 selections.
// ---------------------------------------------------------------------------

/// A Lemma-7.2 selection: either one witness node with two color-0
/// neighbors, or an adjacent pair with no common color-0 neighbor.
#[derive(Debug, Clone, PartialEq, Eq)]
enum Half {
    Witness(NodeId),
    Pair(NodeId, NodeId),
}

impl Half {
    fn nodes(&self) -> Vec<NodeId> {
        match *self {
            Half::Witness(w) => vec![w],
            Half::Pair(x, y) => vec![x, y],
        }
    }
}

/// Number of color-0 neighbors of `v`.
fn zero_neighbors(g: &Graph, phi: &[usize], v: NodeId) -> Vec<NodeId> {
    g.neighbors(v)
        .iter()
        .copied()
        .filter(|&u| phi[u.index()] == 0)
        .collect()
}

/// Finds a Lemma-7.2 selection among `allowed` component nodes, searched
/// outward from `v` in component distance, preferring near and small-UID
/// candidates. `forbidden_zero` are color-0 nodes the selection must not
/// touch (used to keep `S′` independent of `S`).
#[allow(clippy::too_many_arguments)]
fn find_half(
    g: &Graph,
    uids: &[u64],
    phi: &[usize],
    inside: &[bool],
    v: NodeId,
    max_dist: usize,
    allowed: impl Fn(NodeId) -> bool,
    forbidden_zero: &[bool],
) -> Option<Half> {
    let dist = subset_distances(g, inside, v);
    let mut cands: Vec<NodeId> = g
        .nodes()
        .filter(|&u| dist[u.index()] <= max_dist && allowed(u))
        .collect();
    cands.sort_by_key(|&u| (dist[u.index()], uids[u.index()]));
    let clean = |u: NodeId| {
        zero_neighbors(g, phi, u)
            .iter()
            .all(|z| !forbidden_zero[z.index()])
    };
    // Prefer a single witness node.
    for &w in &cands {
        if zero_neighbors(g, phi, w).len() >= 2 && clean(w) {
            return Some(Half::Witness(w));
        }
    }
    // Otherwise an adjacent pair with no common color-0 neighbor.
    for &x in &cands {
        if !clean(x) {
            continue;
        }
        let zx = zero_neighbors(g, phi, x);
        for &y in g.neighbors(x) {
            if y <= x
                || !inside[y.index()]
                || dist[y.index()] > max_dist
                || !allowed(y)
                || !clean(y)
            {
                continue;
            }
            let zy = zero_neighbors(g, phi, y);
            if zx.iter().all(|a| !zy.contains(a)) {
                return Some(Half::Pair(x, y));
            }
        }
    }
    None
}

/// A complete group plan: two halves plus the derived lit set.
#[derive(Debug, Clone)]
struct GroupPlan {
    s_half: Half,
    sprime_half: Half,
    /// The smallest-UID node across both halves.
    anchor: NodeId,
    /// Which half contains the anchor.
    anchor_in_s: bool,
}

impl GroupPlan {
    fn all_nodes(&self) -> Vec<NodeId> {
        let mut v = self.s_half.nodes();
        v.extend(self.sprime_half.nodes());
        v
    }

    /// The nodes that get bit 1 for anchor color `phi_anchor ∈ {1, 2}`:
    /// color 1 lights only the anchor's half (one lit component), color 2
    /// lights both halves (two lit components).
    fn lit_nodes(&self, phi_anchor: usize) -> Vec<NodeId> {
        if phi_anchor == 1 {
            if self.anchor_in_s {
                self.s_half.nodes()
            } else {
                self.sprime_half.nodes()
            }
        } else {
            self.all_nodes()
        }
    }
}

/// Builds candidate group plans around ruling-set node `r`.
#[allow(clippy::too_many_arguments)]
fn candidate_plans(
    g: &Graph,
    uids: &[u64],
    phi: &[usize],
    inside: &[bool],
    r: NodeId,
    delta: usize,
    extent: usize,
    max_candidates: usize,
) -> Vec<GroupPlan> {
    let dist_r = subset_distances(g, inside, r);
    let mut seeds: Vec<NodeId> = g
        .nodes()
        .filter(|&u| dist_r[u.index()] <= delta + 2)
        .collect();
    seeds.sort_by_key(|&u| (dist_r[u.index()], uids[u.index()]));
    let mut plans = Vec::new();
    for &v in seeds.iter() {
        if plans.len() >= max_candidates {
            break;
        }
        let none_forbidden = vec![false; g.n()];
        let Some(s_half) = find_half(g, uids, phi, inside, v, delta, |_| true, &none_forbidden)
        else {
            continue;
        };
        // S′ must avoid S's color-0 neighbors and S itself (plus its
        // neighborhood, so the two halves are non-adjacent).
        let s_nodes = s_half.nodes();
        let mut forbidden_zero = vec![false; g.n()];
        for &w in &s_nodes {
            for z in zero_neighbors(g, phi, w) {
                forbidden_zero[z.index()] = true;
            }
        }
        let mut near_s = vec![false; g.n()];
        for &w in &s_nodes {
            near_s[w.index()] = true;
            for &u in g.neighbors(w) {
                near_s[u.index()] = true;
            }
        }
        let Some(sprime_half) = find_half(
            g,
            uids,
            phi,
            inside,
            v,
            extent.saturating_sub(2).max(delta),
            |u| !near_s[u.index()],
            &forbidden_zero,
        ) else {
            continue;
        };
        let mut all = s_half.nodes();
        all.extend(sprime_half.nodes());
        let anchor = *all
            .iter()
            .min_by_key(|&&u| uids[u.index()])
            .expect("group is nonempty");
        let anchor_in_s = s_half.nodes().contains(&anchor);
        plans.push(GroupPlan {
            s_half,
            sprime_half,
            anchor,
            anchor_in_s,
        });
    }
    plans
}

// ---------------------------------------------------------------------------
// Group selection across all ruling-set nodes (greedy, then Moser–Tardos).
// ---------------------------------------------------------------------------

/// The "no color-0 node touches two lit group nodes" selection problem.
struct SelectionSystem<'a> {
    g: &'a Graph,
    phi: &'a [usize],
    plans: &'a [Vec<GroupPlan>],
    /// For each constraint (color-0 node), the plan-slots that can touch it.
    constraints: Vec<(NodeId, Vec<usize>)>,
}

impl<'a> SelectionSystem<'a> {
    fn new(g: &'a Graph, phi: &'a [usize], plans: &'a [Vec<GroupPlan>]) -> Self {
        // Which slots can light a neighbor of which color-0 node?
        let mut touching: Vec<Vec<usize>> = vec![Vec::new(); g.n()];
        for (slot, cands) in plans.iter().enumerate() {
            let mut marked = vec![false; g.n()];
            for plan in cands {
                for w in plan.all_nodes() {
                    for z in zero_neighbors(g, phi, w) {
                        if !marked[z.index()] {
                            marked[z.index()] = true;
                            touching[z.index()].push(slot);
                        }
                    }
                }
            }
        }
        let constraints = g
            .nodes()
            .filter(|&z| phi[z.index()] == 0 && !touching[z.index()].is_empty())
            .map(|z| (z, touching[z.index()].clone()))
            .collect();
        SelectionSystem {
            g,
            phi,
            plans,
            constraints,
        }
    }

    fn lit_neighbors_of(&self, z: NodeId, assignment: &[usize]) -> usize {
        let mut count = 0;
        for &slot in &self
            .constraints
            .iter()
            .find(|(c, _)| *c == z)
            .expect("constraint exists")
            .1
        {
            let plan = &self.plans[slot][assignment[slot]];
            let lit = plan.lit_nodes(self.phi[plan.anchor.index()]);
            count += self
                .g
                .neighbors(z)
                .iter()
                .filter(|u| lit.contains(u))
                .count();
        }
        count
    }
}

impl ConstraintSystem for SelectionSystem<'_> {
    fn num_vars(&self) -> usize {
        self.plans.len()
    }
    fn domain_size(&self, var: usize) -> usize {
        self.plans[var].len()
    }
    fn num_constraints(&self) -> usize {
        self.constraints.len()
    }
    fn vars_of(&self, c: usize) -> Vec<usize> {
        self.constraints[c].1.clone()
    }
    fn is_satisfied(&self, c: usize, assignment: &[usize]) -> bool {
        let z = self.constraints[c].0;
        self.lit_neighbors_of(z, assignment) <= 1
    }
}

// ---------------------------------------------------------------------------
// The schema.
// ---------------------------------------------------------------------------

impl AdviceSchema for ThreeColoringSchema {
    type Output = Vec<usize>;

    fn name(&self) -> String {
        format!(
            "3-coloring(small={}, spacing={}, extent={})",
            self.small_diameter, self.group_spacing, self.group_extent
        )
    }

    fn encode_with(&self, net: &Network, run: &Run) -> Result<AdviceMap, EncodeError> {
        let g = net.graph();
        let uids = net.uids();
        let delta = g.max_degree();
        // 1. A greedy proper 3-coloring witness.
        let base = proper_coloring_witness(g, uids, 3, self.witness_cap).map_err(|e| match e {
            lad_lcl::brute::CompleteError::NoSolution => {
                EncodeError::SolutionDoesNotExist("graph is not 3-colorable".into())
            }
            lad_lcl::brute::CompleteError::CapExceeded { cap } => {
                EncodeError::SearchBudgetExceeded(format!("witness search cap {cap}"))
            }
        })?;
        let phi = coloring::make_greedy(g, &base);
        // 2. Type-1 bits on every color-0 node.
        let mut bits = vec![false; g.n()];
        for v in g.nodes() {
            if phi[v.index()] == 0 {
                bits[v.index()] = true;
            }
        }
        // 3. Groups in large components of G_{2,3}.
        let inside: Vec<bool> = g.nodes().map(|v| phi[v.index()] != 0).collect();
        let sub = InducedSubgraph::filtered(g, |v| inside[v.index()]);
        let (comp, count) = lad_graph::traversal::connected_components(sub.graph());
        let small_limit = self.effective_small(delta);
        let mut plan_slots: Vec<Vec<GroupPlan>> = Vec::new();
        for c in 0..count {
            let members: Vec<NodeId> = sub
                .graph()
                .nodes()
                .filter(|v| comp[v.index()] == c)
                .map(|v| sub.to_original(v))
                .collect();
            let comp_sub = InducedSubgraph::new(g, &members);
            let diam = lad_graph::traversal::diameter(comp_sub.graph()).unwrap_or(0);
            if diam <= small_limit {
                continue;
            }
            // Ruling set inside the component (component metric).
            let local_rs = ruling::ruling_set(comp_sub.graph(), self.group_spacing);
            for lr in local_rs {
                let r = comp_sub.to_original(lr);
                let plans = candidate_plans(
                    g,
                    uids,
                    &phi,
                    &inside,
                    r,
                    delta.max(1),
                    self.group_extent,
                    8,
                );
                if plans.is_empty() {
                    return Err(EncodeError::PlacementFailed(format!(
                        "no group candidates near {r} (component too cramped)"
                    )));
                }
                plan_slots.push(plans);
            }
        }
        // 4. Select one plan per slot: greedy, then Moser–Tardos.
        let system = SelectionSystem::new(g, &phi, &plan_slots);
        let mut assignment = vec![0usize; plan_slots.len()];
        let greedy_ok = {
            let mut lit_marks = vec![0usize; g.n()]; // lit group-node incidence per color-0 node
            let mut ok = true;
            'slots: for (slot, cands) in plan_slots.iter().enumerate() {
                'cand: for (ci, plan) in cands.iter().enumerate() {
                    let lit = plan.lit_nodes(phi[plan.anchor.index()]);
                    // Would any color-0 node now touch 2 lit nodes?
                    let mut incr: Vec<(usize, usize)> = Vec::new();
                    for &w in &lit {
                        for z in zero_neighbors(g, &phi, w) {
                            incr.push((z.index(), 1));
                        }
                    }
                    // Aggregate increments per node.
                    incr.sort_unstable();
                    let mut per_node: Vec<(usize, usize)> = Vec::new();
                    for (z, k) in incr {
                        match per_node.last_mut() {
                            Some((lz, lk)) if *lz == z => *lk += k,
                            _ => per_node.push((z, k)),
                        }
                    }
                    for &(z, k) in &per_node {
                        if lit_marks[z] + k > 1 {
                            continue 'cand;
                        }
                    }
                    for (z, k) in per_node {
                        lit_marks[z] += k;
                    }
                    assignment[slot] = ci;
                    continue 'slots;
                }
                ok = false;
                break;
            }
            ok
        };
        if !greedy_ok {
            assignment = moser_tardos(&system, 0xC010_5EED, 200_000).map_err(|e| {
                EncodeError::PlacementFailed(format!("group selection failed: {e}"))
            })?;
        }
        for (slot, cands) in plan_slots.iter().enumerate() {
            let plan = &cands[assignment[slot]];
            for w in plan.lit_nodes(phi[plan.anchor.index()]) {
                bits[w.index()] = true;
            }
        }
        let advice = AdviceMap::from_one_bit(&bits);
        // 5. Certificate: the decoder must reproduce a proper 3-coloring.
        let (colors, _) = self
            .decode_with(net, &advice, run)
            .map_err(|e| EncodeError::PlacementFailed(format!("self-decode failed: {e}")))?;
        if !coloring::is_proper_k_coloring(g, &colors, 3) {
            return Err(EncodeError::PlacementFailed(
                "self-decode produced an improper coloring".into(),
            ));
        }
        Ok(advice)
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
        let mut bits = Vec::with_capacity(g.n());
        for v in g.nodes() {
            let s = advice.get(v);
            if s.len() != 1 {
                return Err(DecodeError::malformed(v, "expected exactly one bit"));
            }
            bits.push(s.get(0));
        }
        let delta = g.max_degree();
        let radius = self.decode_radius(delta);
        let small_limit = self.effective_small(delta);
        let extent = self.group_extent;
        let advised = net.with_inputs(bits);
        let (colors, stats) = run.try_nodes(&advised, |ctx| {
            decode_color(&ctx.ball(radius), small_limit, extent)
        })?;
        Ok((colors, stats))
    }
}

/// Decodes the color of the center of `ball`.
fn decode_color(
    ball: &Ball<bool>,
    small_limit: usize,
    extent: usize,
) -> Result<usize, DecodeError> {
    let g = ball.graph();
    let me = ball.global_node(ball.center());
    // Classify lit nodes: type 1 iff at most one lit neighbor. Reliable
    // only where all edges are known.
    let classifiable = |v: NodeId| ball.knows_all_edges_of(v);
    let lit = |v: NodeId| *ball.input(v);
    let is_type1 = |v: NodeId| -> Option<bool> {
        if !lit(v) {
            return Some(false);
        }
        if !classifiable(v) {
            return None;
        }
        let lit_nbrs = g.neighbors(v).iter().filter(|&&u| lit(u)).count();
        Some(lit_nbrs <= 1)
    };
    let center = ball.center();
    match is_type1(center) {
        Some(true) => return Ok(0),
        Some(false) => {}
        None => return Err(DecodeError::malformed(me, "view too small to classify")),
    }
    // BFS within the component of non-color-0 nodes.
    let in_component = |v: NodeId| -> Option<bool> { is_type1(v).map(|t| !t) };
    let mut dist = vec![usize::MAX; g.n()];
    let mut frontier_hit_limit = false;
    dist[center.index()] = 0;
    let mut q = VecDeque::from([center]);
    let mut members = vec![center];
    while let Some(v) = q.pop_front() {
        if dist[v.index()] >= ball.radius() - 1 {
            frontier_hit_limit = true;
            continue;
        }
        for &u in g.neighbors(v) {
            if dist[u.index()] != usize::MAX {
                continue;
            }
            match in_component(u) {
                Some(true) => {
                    dist[u.index()] = dist[v.index()] + 1;
                    members.push(u);
                    q.push_back(u);
                }
                Some(false) => {}
                None => {
                    // Unclassifiable frontier: treat as a sign the
                    // component extends beyond the view.
                    frontier_hit_limit = true;
                }
            }
        }
    }
    // Small component? Only trustworthy if the BFS never hit the view
    // boundary.
    if !frontier_hit_limit {
        let comp_nodes: Vec<NodeId> = members.clone();
        let sub = InducedSubgraph::new(g, &comp_nodes);
        let diam = lad_graph::traversal::diameter(sub.graph()).unwrap_or(0);
        if diam <= small_limit {
            // Canonical 2-coloring: the smallest-UID member gets color 1.
            let s = *comp_nodes
                .iter()
                .min_by_key(|&&v| ball.uid(v))
                .expect("component contains the center");
            let sl = sub.to_local(s).expect("s is a member");
            let dl = lad_graph::traversal::bfs_distances(sub.graph(), sl);
            let cl = sub.to_local(center).expect("center is a member");
            let d = dl[cl.index()]
                .ok_or_else(|| DecodeError::malformed(me, "component disconnected in view"))?;
            return Ok(if d % 2 == 0 { 1 } else { 2 });
        }
    }
    // Large component: find the nearest lit type-23 node (component
    // metric), gather its group, count lit components.
    let mut seed: Option<(usize, u64, NodeId)> = None;
    for &v in &members {
        if lit(v) {
            let cand = (dist[v.index()], ball.uid(v), v);
            if seed.is_none_or(|(d, u, _)| (cand.0, cand.1) < (d, u)) {
                seed = Some(cand);
            }
        }
    }
    let (_, _, w0) = seed.ok_or_else(|| {
        DecodeError::malformed(me, "no parity group within the view of a large component")
    })?;
    // Group = lit component-members within component-distance `extent` of w0.
    let mut gdist = vec![usize::MAX; g.n()];
    gdist[w0.index()] = 0;
    let mut q = VecDeque::from([w0]);
    while let Some(v) = q.pop_front() {
        if gdist[v.index()] >= extent {
            continue;
        }
        for &u in g.neighbors(v) {
            if gdist[u.index()] == usize::MAX && dist[u.index()] != usize::MAX {
                gdist[u.index()] = gdist[v.index()] + 1;
                q.push_back(u);
            }
        }
    }
    let group: Vec<NodeId> = members
        .iter()
        .copied()
        .filter(|&v| lit(v) && gdist[v.index()] <= extent)
        .collect();
    // Count connected components of the lit group (adjacency in G).
    let mut comp_of = vec![usize::MAX; group.len()];
    let mut comps = 0usize;
    for i in 0..group.len() {
        if comp_of[i] != usize::MAX {
            continue;
        }
        let mut stack = vec![i];
        comp_of[i] = comps;
        while let Some(j) = stack.pop() {
            for (k, &other) in group.iter().enumerate() {
                if comp_of[k] == usize::MAX && g.has_edge(group[j], other) {
                    comp_of[k] = comps;
                    stack.push(k);
                }
            }
        }
        comps += 1;
    }
    let anchor_color = match comps {
        1 => 1,
        2 => 2,
        other => {
            return Err(DecodeError::malformed(
                me,
                format!("parity group has {other} lit components"),
            ))
        }
    };
    let s = *group
        .iter()
        .min_by_key(|&&v| ball.uid(v))
        .expect("group is nonempty");
    let d = dist[s.index()];
    if d == usize::MAX {
        return Err(DecodeError::malformed(me, "group outside the component"));
    }
    Ok(if d % 2 == 0 {
        anchor_color
    } else {
        3 - anchor_color
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use lad_graph::generators;
    use lad_lcl::problems::ProperColoring;
    use lad_lcl::{verify, Labeling};

    fn check(net: &Network, schema: &ThreeColoringSchema) -> (AdviceMap, RoundStats) {
        let advice = schema.encode(net).expect("encode");
        assert_eq!(advice.max_bits(), 1, "one bit per node");
        let (colors, stats) = schema.decode(net, &advice).expect("decode");
        assert!(
            coloring::is_proper_k_coloring(net.graph(), &colors, 3),
            "improper 3-coloring"
        );
        (advice, stats)
    }

    #[test]
    fn even_cycle() {
        let net = Network::with_identity_ids(generators::cycle(60));
        check(&net, &ThreeColoringSchema::default());
    }

    #[test]
    fn odd_cycle() {
        let net = Network::with_identity_ids(generators::cycle(61));
        check(&net, &ThreeColoringSchema::default());
    }

    #[test]
    fn grid_is_two_colorable_but_treated_as_three() {
        let net = Network::with_identity_ids(generators::grid2d(9, 9, false));
        check(&net, &ThreeColoringSchema::default());
    }

    #[test]
    fn random_tripartite_graphs() {
        for seed in 0..4 {
            let (g, _) = generators::random_tripartite([25, 25, 25], 5, 130, seed);
            let net = Network::with_identity_ids(g);
            check(&net, &ThreeColoringSchema::default());
        }
    }

    #[test]
    fn decoded_coloring_passes_lcl_checker() {
        let (g, _) = generators::random_tripartite([20, 20, 20], 4, 90, 9);
        let net = Network::with_identity_ids(g);
        let schema = ThreeColoringSchema::default();
        let advice = schema.encode(&net).unwrap();
        let (colors, _) = schema.decode(&net, &advice).unwrap();
        let labeling = Labeling::from_node_labels(colors, net.graph().m());
        assert!(verify::verify_centralized(&net, &ProperColoring::new(3), &labeling).is_empty());
    }

    #[test]
    fn rounds_independent_of_n_on_paths() {
        let schema = ThreeColoringSchema::default();
        let mut rounds = Vec::new();
        for n in [80usize, 320] {
            let net = Network::with_identity_ids(generators::path(n));
            let (_, stats) = check(&net, &schema);
            rounds.push(stats.rounds());
        }
        assert_eq!(rounds[0], rounds[1]);
    }

    #[test]
    fn squared_path_exercises_parity_groups() {
        // P_n² is 3-chromatic with ONE huge {2,3}-component under the
        // greedy coloring, so the ruling-set parity groups (the paper's
        // central C6 machinery) genuinely fire here — unlike on bipartite
        // or random tripartite instances whose components stay small.
        let g = lad_graph::power::power_graph(&generators::path(120), 2);
        let net = Network::with_identity_ids(g);
        let schema = ThreeColoringSchema::default();
        let advice = schema.encode(&net).expect("encode");
        let (t1, t23) = bit_breakdown(&net, &advice);
        assert!(t23 > 0, "parity groups must be placed on a large component");
        assert!(t1 > 0);
        let (colors, _) = schema.decode(&net, &advice).expect("decode");
        assert!(coloring::is_proper_k_coloring(net.graph(), &colors, 3));
    }

    #[test]
    fn squared_cycle_exercises_parity_groups() {
        let g = lad_graph::power::power_graph(&generators::cycle(120), 2);
        let net = Network::with_identity_ids(g);
        let schema = ThreeColoringSchema::default();
        let advice = schema.encode(&net).expect("encode");
        let (_, t23) = bit_breakdown(&net, &advice);
        assert!(t23 > 0);
        let (colors, _) = schema.decode(&net, &advice).expect("decode");
        assert!(coloring::is_proper_k_coloring(net.graph(), &colors, 3));
    }

    #[test]
    fn rejects_non_three_colorable() {
        let net = Network::with_identity_ids(generators::complete(4));
        let err = ThreeColoringSchema::default().encode(&net).unwrap_err();
        assert!(matches!(err, EncodeError::SolutionDoesNotExist(_)));
    }

    #[test]
    fn ones_density_reflects_color_class() {
        // The advice cannot be made sparse: the 1-bits contain a whole
        // color class (Section 7's closing remark).
        let net = Network::with_identity_ids(generators::cycle(100));
        let schema = ThreeColoringSchema::default();
        let advice = schema.encode(&net).unwrap();
        let ratio = advice.one_ratio().unwrap();
        assert!(ratio > 0.2, "ratio {ratio} suspiciously sparse");
    }

    #[test]
    fn tampered_bit_detected_or_still_proper() {
        let (g, _) = generators::random_tripartite([20, 20, 20], 4, 80, 3);
        let net = Network::with_identity_ids(g);
        let schema = ThreeColoringSchema::default();
        let advice = schema.encode(&net).unwrap();
        let mut ok_or_detected = 0;
        for flip in [0usize, 7, 33] {
            let mut bits: Vec<bool> = (0..net.graph().n())
                .map(|i| advice.get(NodeId::from_index(i)).get(0))
                .collect();
            bits[flip] = !bits[flip];
            let tampered = AdviceMap::from_one_bit(&bits);
            match schema.decode(&net, &tampered) {
                Err(_) => ok_or_detected += 1,
                Ok((colors, _)) => {
                    // Tampering may still yield a proper coloring (e.g.
                    // flipping an unused bit) — that is fine; silent
                    // improper output is what the locally-checkable-proof
                    // corollary must avoid, and the verifier (Section 1.2)
                    // would catch it by re-checking the LCL.
                    if coloring::is_proper_k_coloring(net.graph(), &colors, 3) {
                        ok_or_detected += 1;
                    }
                }
            }
        }
        assert!(ok_or_detected >= 1);
    }
}

/// Diagnostic: splits a 1-bit advice map into type-1 bits (color-class
/// markers; lit nodes with at most one lit neighbor) and type-23 bits
/// (parity-group members) using the decoder's own classification rule.
/// Used by experiment E6 to show the advice density is dominated by the
/// encoded color class — the reason the paper conjectures C6 cannot be
/// made arbitrarily sparse (Open Question 2).
pub fn bit_breakdown(net: &Network, advice: &AdviceMap) -> (usize, usize) {
    let g = net.graph();
    let lit: Vec<bool> = g
        .nodes()
        .map(|v| {
            let s = advice.get(v);
            s.len() == 1 && s.get(0)
        })
        .collect();
    let mut type1 = 0;
    let mut type23 = 0;
    for v in g.nodes() {
        if !lit[v.index()] {
            continue;
        }
        let lit_nbrs = g.neighbors(v).iter().filter(|&&u| lit[u.index()]).count();
        if lit_nbrs <= 1 {
            type1 += 1;
        } else {
            type23 += 1;
        }
    }
    (type1, type23)
}

#[cfg(test)]
mod breakdown_tests {
    use super::*;
    use lad_graph::generators;

    #[test]
    fn breakdown_counts_all_ones() {
        let (g, _) = generators::random_tripartite([20, 20, 20], 4, 90, 2);
        let net = Network::with_identity_ids(g);
        let schema = ThreeColoringSchema::default();
        let advice = schema.encode(&net).unwrap();
        let (t1, t23) = bit_breakdown(&net, &advice);
        let total = advice
            .strings()
            .iter()
            .filter(|s| s.len() == 1 && s.get(0))
            .count();
        assert_eq!(t1 + t23, total);
        // Type-1 bits dominate: they are a whole color class.
        assert!(t1 > t23);
        assert!(t1 > 0);
    }
}
