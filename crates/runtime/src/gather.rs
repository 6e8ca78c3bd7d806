//! Ball views reconstructed over the *explicit* message-passing simulator.
//!
//! The ball-view executor ([`crate::run_local`]) materializes radius-`r`
//! views directly from the graph — fast, but an abstraction. This module
//! grounds that abstraction: nodes flood their local records
//! (identifier, degree, neighbor identifiers, input) over
//! [`crate::messaging`], and each node *assembles* its view from what it
//! actually heard. [`run_gathered_robust`] then applies any ball-function
//! to the assembled views.
//!
//! The flooding runs over an arbitrary [`Transport`] with a retry budget
//! of extra rounds (flooding re-announces *everything* every round, so
//! dropped records are healed by later rounds), each node *validates* what
//! it heard before assembling a view, and irrecoverable executions degrade
//! to a typed [`GatherError`] instead of a silently wrong ball. On a
//! [`crate::PerfectLink`] with `budget = radius` it takes exactly `radius`
//! rounds, and the tests assert that the assembled views are canonically
//! identical to [`Ball::collect`]'s — the equivalence "`T`-round LOCAL
//! algorithm = function of the radius-`T` view" made executable.

use crate::ball::Ball;
use crate::messaging::{run_rounds_on, LocalInfo, LossyRoundAlgorithm};
use crate::network::Network;
use crate::transport::{Corruptible, FaultStats, Transport};
use lad_graph::{GraphBuilder, NodeId};
use std::collections::BTreeMap;

/// What every node announces about itself.
#[derive(Debug, Clone, PartialEq)]
pub struct NodeRecord<In> {
    /// The node's unique identifier.
    pub uid: u64,
    /// Its true degree.
    pub degree: usize,
    /// Its neighbors' identifiers (sorted).
    pub neighbors: Vec<u64>,
    /// Its input.
    pub input: In,
}

/// Builds a view from its validated members: `(record, distance)` pairs
/// sorted by `(distance, uid)` with the center first. Reproduces
/// [`Ball::collect`]'s semantics exactly: edges only where one endpoint is
/// at distance < `r`.
fn build_ball<In: Clone>(members: &[(NodeRecord<In>, usize)], r: usize) -> Ball<In> {
    let index_of: BTreeMap<u64, usize> = members
        .iter()
        .enumerate()
        .map(|(i, (rec, _))| (rec.uid, i))
        .collect();
    let mut b = GraphBuilder::new(members.len());
    for (rec, d) in members {
        if *d >= r {
            continue; // frontier edges are not known yet
        }
        let li = index_of[&rec.uid];
        for nb in &rec.neighbors {
            if let Some(&lj) = index_of.get(nb) {
                b.add_edge(NodeId::from_index(li), NodeId::from_index(lj));
            }
        }
    }
    let graph = b.build();
    Ball::assemble(
        graph,
        r,
        members.iter().map(|(_, d)| *d).collect(),
        members.iter().map(|(rec, _)| rec.uid).collect(),
        members.iter().map(|(rec, _)| rec.input.clone()).collect(),
        members.iter().map(|(rec, _)| rec.degree).collect(),
    )
}

impl<In: Corruptible> Corruptible for NodeRecord<In> {
    /// Garbles one field: the degree claim, one neighbor identifier, the
    /// input, or the record's own identifier (a "who am I" lie).
    fn corrupt(&mut self, entropy: u64) {
        match entropy % 4 {
            0 => self.degree.corrupt(entropy >> 2),
            1 => self.neighbors.corrupt(entropy >> 2),
            2 => self.input.corrupt(entropy >> 2),
            _ => self.uid.corrupt(entropy >> 2),
        }
    }
}

/// Why a node could not (yet) assemble a trustworthy view.
#[derive(Debug)]
enum ViewDefect {
    /// A record the view needs has not arrived — recoverable: flooding
    /// re-announces everything, so later rounds may heal it. The uid is
    /// diagnostic (asserted on in tests); the runner only needs "not yet".
    Missing(#[allow(dead_code)] u64),
    /// A record in the view is internally or mutually inconsistent —
    /// unrecoverable: first-arrival-wins merging pins the bad record.
    Corrupt {
        /// The offending record's claimed identifier.
        uid: u64,
        /// What was wrong with it.
        reason: String,
    },
}

/// Structural sanity of a single record: the degree claim must match the
/// neighbor list, which must be strictly sorted (no duplicates) and free
/// of self-loops.
fn check_record<In>(rec: &NodeRecord<In>) -> Result<(), String> {
    if rec.degree != rec.neighbors.len() {
        return Err(format!(
            "claims degree {} but lists {} neighbors",
            rec.degree,
            rec.neighbors.len()
        ));
    }
    if rec.neighbors.windows(2).any(|w| w[0] >= w[1]) {
        return Err("neighbor list is not strictly sorted".into());
    }
    if rec.neighbors.binary_search(&rec.uid).is_ok() {
        return Err("neighbor list contains a self-loop".into());
    }
    Ok(())
}

/// Determines the radius-`r` view membership around `center` from gathered
/// records — by BFS over the *announced* adjacency, not by arrival timing
/// (under duplication and delays, "round first heard" is no longer the
/// distance; the announced edges are the ground truth the checks defend).
///
/// Validates every member record structurally and checks adjacency
/// symmetry (an edge announced by an interior member must be confirmed by
/// the other endpoint's record). Returns `(uid, distance)` pairs sorted by
/// `(distance, uid)` — exactly the member order [`Ball::collect`] uses.
fn resolve_members<In>(
    records: &BTreeMap<u64, NodeRecord<In>>,
    center: u64,
    r: usize,
) -> Result<Vec<(u64, usize)>, ViewDefect> {
    let mut dist: BTreeMap<u64, usize> = BTreeMap::new();
    dist.insert(center, 0);
    let mut level = vec![center];
    for d in 0..r {
        let mut next = Vec::new();
        for &u in &level {
            let rec = records.get(&u).ok_or(ViewDefect::Missing(u))?;
            check_record(rec).map_err(|reason| ViewDefect::Corrupt { uid: u, reason })?;
            for &nb in &rec.neighbors {
                if let std::collections::btree_map::Entry::Vacant(e) = dist.entry(nb) {
                    e.insert(d + 1);
                    next.push(nb);
                }
            }
        }
        level = next;
    }
    // Frontier records carry the view's uid/degree/input claims for
    // distance-r members; they must exist and be sane too.
    for &u in &level {
        let rec = records.get(&u).ok_or(ViewDefect::Missing(u))?;
        check_record(rec).map_err(|reason| ViewDefect::Corrupt { uid: u, reason })?;
    }
    // Mutual consistency: every edge announced by an interior member must
    // be confirmed by the other endpoint (whose record is a member too).
    for (&u, &du) in &dist {
        if du >= r {
            continue;
        }
        for &nb in &records[&u].neighbors {
            if records[&nb].neighbors.binary_search(&u).is_err() {
                return Err(ViewDefect::Corrupt {
                    uid: u,
                    reason: format!("announces an edge to {nb} that {nb} does not confirm"),
                });
            }
        }
    }
    let mut members: Vec<(u64, usize)> = dist.into_iter().collect();
    members.sort_by_key(|&(u, d)| (d, u));
    Ok(members)
}

/// Per-node gathering state. Arrival rounds are *not* trusted as distances
/// (duplication and delays break that); [`resolve_members`] derives them.
struct RobustGatherState<In> {
    records: BTreeMap<u64, NodeRecord<In>>,
    center: u64,
    rounds_done: usize,
}

/// Flooding against the lossy interface: re-announce everything every
/// round, merge first-arrival-wins, and only emit a view once it is
/// complete *and* passes validation.
struct RobustGatherAlgorithm<In> {
    radius: usize,
    _marker: std::marker::PhantomData<In>,
}

impl<In: Clone> LossyRoundAlgorithm<(In, Vec<u64>)> for RobustGatherAlgorithm<In> {
    type State = RobustGatherState<In>;
    type Msg = Vec<NodeRecord<In>>;
    /// `Ok`: the validated members with their distances; `Err`: an
    /// unrecoverable corruption `(offending uid, reason)`.
    type Out = Result<Vec<(NodeRecord<In>, usize)>, (u64, String)>;

    fn init(&self, info: &LocalInfo<(In, Vec<u64>)>) -> RobustGatherState<In> {
        let (input, neighbors) = info.input.clone();
        let mut records = BTreeMap::new();
        records.insert(
            info.uid,
            NodeRecord {
                uid: info.uid,
                degree: info.degree,
                neighbors,
                input,
            },
        );
        RobustGatherState {
            records,
            center: info.uid,
            rounds_done: 0,
        }
    }

    fn send(
        &self,
        st: &RobustGatherState<In>,
        info: &LocalInfo<(In, Vec<u64>)>,
    ) -> Vec<Vec<NodeRecord<In>>> {
        let all: Vec<NodeRecord<In>> = st.records.values().cloned().collect();
        vec![all; info.degree]
    }

    fn receive(
        &self,
        st: &mut RobustGatherState<In>,
        _info: &LocalInfo<(In, Vec<u64>)>,
        inbox: Vec<Vec<Vec<NodeRecord<In>>>>,
    ) {
        st.rounds_done += 1;
        for port in inbox {
            for msgs in port {
                for rec in msgs {
                    st.records.entry(rec.uid).or_insert(rec);
                }
            }
        }
    }

    fn output(
        &self,
        st: &RobustGatherState<In>,
    ) -> Option<Result<Vec<(NodeRecord<In>, usize)>, (u64, String)>> {
        // Never before round `radius`: even on a small graph where the view
        // completes early, a LOCAL node cannot *know* it has (there could
        // always be more graph beyond the silence) — and this makes a
        // fault-free run take exactly `radius` rounds.
        if st.rounds_done < self.radius {
            return None;
        }
        match resolve_members(&st.records, st.center, self.radius) {
            Ok(members) => Some(Ok(members
                .into_iter()
                .map(|(u, d)| (st.records[&u].clone(), d))
                .collect())),
            // Incomplete: keep listening, later rounds may heal it.
            Err(ViewDefect::Missing(_)) => None,
            // Corrupt: pinned forever by first-arrival-wins; fail loudly.
            Err(ViewDefect::Corrupt { uid, reason }) => Some(Err((uid, reason))),
        }
    }
}

/// Robust gathering failed; no outputs are produced.
///
/// "Failed" is always *typed*: the caller can tell an incomplete execution
/// (retry with a bigger budget, or accept the loss) from a poisoned one
/// (the transport tampered with payloads).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum GatherError {
    /// The round budget ran out with some nodes still missing records
    /// (sustained drops, crashed nodes, or copies still in flight).
    PartialView {
        /// Identifiers of the nodes whose views stayed incomplete.
        missing: Vec<u64>,
        /// Rounds actually executed (= the budget).
        rounds_used: usize,
    },
    /// A node's gathered records failed validation — the transport
    /// corrupted a payload in a way the structure itself exposes.
    CorruptView {
        /// The offending record's claimed identifier.
        node: u64,
        /// What was inconsistent.
        reason: String,
        /// Rounds executed before the run was abandoned.
        rounds_used: usize,
    },
}

impl std::fmt::Display for GatherError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            GatherError::PartialView {
                missing,
                rounds_used,
            } => write!(
                f,
                "{} node(s) still had incomplete views after {rounds_used} rounds",
                missing.len()
            ),
            GatherError::CorruptView {
                node,
                reason,
                rounds_used,
            } => write!(
                f,
                "corrupt record for node {node} detected after {rounds_used} rounds: {reason}"
            ),
        }
    }
}

impl std::error::Error for GatherError {}

/// What a successful robust gather cost.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GatherReport {
    /// Rounds executed; equals the radius on a fault-free transport, and
    /// never exceeds the budget.
    pub rounds_used: usize,
    /// The transport's fault counters for the run.
    pub faults: FaultStats,
}

/// Runs `f` on radius-`radius` views assembled over real message passing:
/// floods for up to `budget ≥ radius` rounds over an arbitrary transport,
/// validates every view before assembly, and degrades to a typed
/// [`GatherError`] instead of returning a silently wrong ball. On a
/// fault-free transport it takes exactly `radius` rounds.
///
/// Flooding is self-healing under message loss — every round re-announces
/// every known record, so a record dropped once is re-offered as long as
/// rounds remain — which is why a finite extra budget recovers from
/// sustained random drops.
///
/// # Errors
///
/// [`GatherError::PartialView`] when the budget ran out with incomplete
/// views (the price of drops too heavy for the budget, or of crashed
/// nodes); [`GatherError::CorruptView`] when validation caught a tampered
/// record.
///
/// # Panics
///
/// Panics if `budget < radius` — the budget includes the `radius` rounds
/// any fault-free execution needs.
pub fn run_gathered_robust<In: Clone, Out>(
    net: &Network<In>,
    radius: usize,
    budget: usize,
    transport: &mut impl Transport<Vec<NodeRecord<In>>>,
    f: impl Fn(&Ball<In>) -> Out,
) -> Result<(Vec<Out>, GatherReport), GatherError> {
    assert!(
        budget >= radius,
        "budget ({budget}) must cover the fault-free round count ({radius})"
    );
    let g = net.graph();
    let inputs: Vec<(In, Vec<u64>)> = g
        .nodes()
        .map(|v| {
            let mut nbrs: Vec<u64> = g.neighbors(v).iter().map(|&u| net.uid(u)).collect();
            nbrs.sort_unstable();
            (net.input(v).clone(), nbrs)
        })
        .collect();
    let msg_net = Network::new(g.clone(), net.ids().clone(), inputs);
    let algo = RobustGatherAlgorithm {
        radius,
        _marker: std::marker::PhantomData,
    };
    let outcome = run_rounds_on(&msg_net, &algo, budget, transport);
    let report = GatherReport {
        rounds_used: outcome.rounds,
        faults: outcome.faults,
    };
    let mut missing = Vec::new();
    let mut views = Vec::with_capacity(g.n());
    for (v, out) in g.nodes().zip(outcome.outputs) {
        match out {
            Some(Ok(members)) => views.push(members),
            Some(Err((uid, reason))) => {
                return Err(GatherError::CorruptView {
                    node: uid,
                    reason: format!("in the view of node {}: {reason}", net.uid(v)),
                    rounds_used: report.rounds_used,
                })
            }
            None => missing.push(net.uid(v)),
        }
    }
    if !missing.is_empty() {
        return Err(GatherError::PartialView {
            missing,
            rounds_used: report.rounds_used,
        });
    }
    let outs = views
        .iter()
        .map(|members| f(&build_ball(members, radius)))
        .collect();
    Ok((outs, report))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::canonical::canonicalize;
    use crate::executor::run_local;
    use crate::transport::{FaultPlan, PerfectLink};
    use lad_graph::{generators, IdAssignment};

    /// Gathers on a [`PerfectLink`] with `budget = radius`, asserting the
    /// run took exactly `radius` rounds and tallied no fault.
    fn gather_perfect<In: Clone, Out>(
        net: &Network<In>,
        radius: usize,
        f: impl Fn(&Ball<In>) -> Out,
    ) -> Vec<Out> {
        let (outs, report) = run_gathered_robust(net, radius, radius, &mut PerfectLink, f)
            .expect("a perfect link cannot fail");
        assert_eq!(report.rounds_used, radius, "fault-free rounds");
        assert_eq!(report.faults.total_faults(), 0, "phantom faults");
        outs
    }

    #[test]
    fn gathered_views_match_collected_views() {
        for (g, r) in [
            (generators::cycle(14), 3),
            (generators::grid2d(5, 5, false), 2),
            (generators::star(6), 1),
            (generators::random_bounded_degree(30, 5, 60, 1), 2),
        ] {
            let n = g.n();
            let net = Network::with_ids(g, IdAssignment::random_permutation(n, 9));
            let gathered = gather_perfect(&net, r, |ball| canonicalize(ball, |_| 0));
            let (collected, _) = run_local(&net, |ctx| canonicalize(&ctx.ball(r), |_| 0));
            assert_eq!(gathered, collected, "radius {r}");
            // Spare budget costs no round on a fault-free transport.
            let (slack, report) = run_gathered_robust(&net, r, r + 5, &mut PerfectLink, |ball| {
                canonicalize(ball, |_| 0)
            })
            .unwrap();
            assert_eq!(slack, collected, "radius {r}, budget {}", r + 5);
            assert_eq!(report.rounds_used, r, "no faults, no extra rounds");
            assert_eq!(report.faults.total_faults(), 0);
        }
    }

    #[test]
    fn gathered_views_carry_inputs() {
        let g = generators::path(6);
        let net = Network::with_identity_ids(g).with_inputs(vec![10, 20, 30, 40, 50, 60]);
        let sums = gather_perfect(&net, 1, |ball| {
            ball.graph().nodes().map(|v| *ball.input(v)).sum::<i32>()
        });
        assert_eq!(sums[0], 30); // self + one neighbor
        assert_eq!(sums[2], 90); // 20 + 30 + 40
    }

    #[test]
    fn robust_gather_radius_zero() {
        let net = Network::with_identity_ids(generators::cycle(5));
        let (outs, report) =
            run_gathered_robust(&net, 0, 0, &mut PerfectLink, |ball| ball.n()).unwrap();
        assert_eq!(report.rounds_used, 0);
        assert!(outs.iter().all(|&k| k == 1));
    }

    #[test]
    fn drops_heal_within_budget() {
        let g = generators::cycle(12);
        let net = Network::with_identity_ids(g);
        let truth = gather_perfect(&net, 2, |ball| canonicalize(ball, |_| 0));
        let plan = FaultPlan::new(21).drop_rate(0.3);
        let (outs, report) = run_gathered_robust(&net, 2, 40, &mut plan.start(), |ball| {
            canonicalize(ball, |_| 0)
        })
        .expect("30% drops must heal within a 40-round budget");
        assert_eq!(outs, truth, "healed views are bit-identical");
        assert!(report.rounds_used >= 2 && report.rounds_used <= 40);
        assert!(
            report.faults.dropped > 0,
            "the plan really dropped messages"
        );
    }

    #[test]
    fn blackout_degrades_to_partial_view() {
        let net = Network::with_identity_ids(generators::cycle(8));
        let plan = FaultPlan::new(3).drop_rate(1.0);
        let err = run_gathered_robust(&net, 2, 6, &mut plan.start(), |ball| ball.n()).unwrap_err();
        match err {
            GatherError::PartialView {
                missing,
                rounds_used,
            } => {
                assert_eq!(missing.len(), 8, "nobody hears anything");
                assert_eq!(rounds_used, 6, "the whole budget was spent");
            }
            other => panic!("expected PartialView, got {other}"),
        }
    }

    #[test]
    fn crashed_node_leaves_neighbors_short() {
        let g = generators::path(6);
        let net = Network::with_identity_ids(g);
        // Node 3 crashes immediately: nodes needing its record (or records
        // only it can relay) never complete.
        let plan = FaultPlan::new(0).crash(NodeId(3), 0);
        let err = run_gathered_robust(&net, 2, 10, &mut plan.start(), |ball| ball.n()).unwrap_err();
        match err {
            GatherError::PartialView { missing, .. } => {
                // The crashed node itself and everyone within radius 2 of it
                // (who needs a record it must send or relay) are starved.
                assert!(missing.contains(&4), "uid of the crashed node");
                assert!(missing.len() >= 3);
            }
            other => panic!("expected PartialView, got {other}"),
        }
    }

    #[test]
    fn resolve_members_checks_structure() {
        let rec = |uid: u64, nbrs: &[u64]| NodeRecord {
            uid,
            degree: nbrs.len(),
            neighbors: nbrs.to_vec(),
            input: (),
        };
        // Sound 3-path 1–2–3.
        let mut records = BTreeMap::new();
        records.insert(1, rec(1, &[2]));
        records.insert(2, rec(2, &[1, 3]));
        records.insert(3, rec(3, &[2]));
        let members = resolve_members(&records, 2, 1).unwrap();
        assert_eq!(members, vec![(2, 0), (1, 1), (3, 1)]);

        // Missing record -> recoverable defect.
        let mut partial = records.clone();
        partial.remove(&3);
        assert!(matches!(
            resolve_members(&partial, 2, 1),
            Err(ViewDefect::Missing(3))
        ));

        // Degree lie -> corrupt.
        let mut lying = records.clone();
        lying.get_mut(&2).unwrap().degree = 5;
        assert!(matches!(
            resolve_members(&lying, 2, 1),
            Err(ViewDefect::Corrupt { uid: 2, .. })
        ));

        // Unsorted neighbor list -> corrupt.
        let mut unsorted = records.clone();
        unsorted.get_mut(&2).unwrap().neighbors = vec![3, 1];
        assert!(matches!(
            resolve_members(&unsorted, 2, 1),
            Err(ViewDefect::Corrupt { uid: 2, .. })
        ));

        // Asymmetric adjacency (2 lists 4; 4 exists but denies) -> corrupt.
        let mut asym = records.clone();
        asym.get_mut(&2).unwrap().neighbors = vec![1, 4];
        asym.insert(4, rec(4, &[5]));
        asym.insert(5, rec(5, &[4]));
        assert!(matches!(
            resolve_members(&asym, 2, 1),
            Err(ViewDefect::Corrupt { uid: 2, .. })
        ));
    }

    #[test]
    #[should_panic(expected = "budget")]
    fn robust_gather_rejects_budget_below_radius() {
        let net = Network::with_identity_ids(generators::cycle(5));
        let _ = run_gathered_robust(&net, 3, 2, &mut PerfectLink, |ball| ball.n());
    }
}
