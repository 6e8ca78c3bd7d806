//! Self-checking decoding over misbehaving networks.
//!
//! The decoders in this crate are *verifiers* in the locally-checkable-
//! proof reading of the paper (Section 1.2) — `tests/tamper.rs` exercises
//! that against advice tampered *at rest*. This module extends the same
//! contract to advice and views tampered *in transit*:
//!
//! * [`deliver_advice`] carries every node's advice string across a
//!   [`FaultPlan`]-controlled last hop (with per-round retransmission), so
//!   any schema's decoder can be run on what a faulty network actually
//!   delivered. Nodes whose advice never arrives surface as a typed
//!   [`RobustDecodeError::Undelivered`], never as silently absent advice.
//! * [`CheckedSchema`] wraps a schema with the LCL its output must
//!   satisfy (the same pairing as [`crate::proofs::ProofSystem`]): decode,
//!   then re-verify every neighborhood, and *only* release an output the
//!   distributed checker accepted.
//! * [`decode_gathered`] runs the balanced-orientation decoder on views
//!   assembled by fault-tolerant flooding
//!   ([`lad_runtime::run_gathered_robust`]) — transport corruption of the
//!   flooded records themselves surfaces as a typed gather or decode
//!   error, and [`decode_gathered_checked`] adds the LCL layer on top.
//!
//! Together these are the "never silently wrong" guarantee the fault
//! matrix (`tests/fault_schemas.rs`) pins down: whatever a seeded fault
//! plan does, a run either returns a verified-correct output or a typed
//! rejection.

use crate::advice::AdviceMap;
use crate::balanced::{aggregate_claims, BalancedOrientationSchema};
use crate::bits::BitString;
use crate::error::DecodeError;
use crate::proofs::orientation_labeling;
use crate::schema::AdviceSchema;
use lad_graph::Orientation;
use lad_lcl::{verify, Labeling, Lcl};
use lad_runtime::{
    Corruptible, Fate, FaultPlan, FaultStats, GatherError, GatherReport, Network, NodeRecord,
    RoundStats, Transport,
};

/// Why a fault-tolerant decode produced no output.
///
/// Every failure mode is typed — the caller can always tell *which* layer
/// rejected (transport starvation, gather validation, decoder, or the
/// final LCL checker) and react accordingly.
#[derive(Debug)]
pub enum RobustDecodeError {
    /// Robust gathering itself failed (incomplete or corrupt views).
    Gather(GatherError),
    /// The schema decoder rejected what was delivered.
    Decode(DecodeError),
    /// Advice delivery starved: these nodes (by identifier) never received
    /// their advice within the round budget.
    Undelivered {
        /// Identifiers of the starved nodes.
        nodes: Vec<u64>,
    },
    /// The decode succeeded but the distributed LCL checker rejected the
    /// output — the tampering produced a *plausible but wrong* solution,
    /// and the checker layer caught it.
    Rejected {
        /// How many nodes rejected their neighborhood.
        violations: usize,
    },
}

impl std::fmt::Display for RobustDecodeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RobustDecodeError::Gather(e) => write!(f, "robust gather failed: {e}"),
            RobustDecodeError::Decode(e) => write!(f, "decoder rejected: {e}"),
            RobustDecodeError::Undelivered { nodes } => {
                write!(f, "advice never reached {} node(s)", nodes.len())
            }
            RobustDecodeError::Rejected { violations } => {
                write!(f, "{violations} node(s) rejected the decoded output")
            }
        }
    }
}

impl std::error::Error for RobustDecodeError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            RobustDecodeError::Gather(e) => Some(e),
            RobustDecodeError::Decode(e) => Some(e),
            _ => None,
        }
    }
}

impl From<GatherError> for RobustDecodeError {
    fn from(e: GatherError) -> Self {
        RobustDecodeError::Gather(e)
    }
}

impl From<DecodeError> for RobustDecodeError {
    fn from(e: DecodeError) -> Self {
        RobustDecodeError::Decode(e)
    }
}

/// Simulates delivering each node's advice string over a faulty last hop,
/// with up to `budget` per-round retransmissions.
///
/// Each round the advice server re-sends node `v`'s string; the fate of
/// the round-`r` send is `plan.fate(r, v, 0)` — the same pure function the
/// message-passing transport uses, so delivery outcomes are reproducible
/// under the plan's seed. The copy with the earliest arrival wins
/// (earliest-sent breaking ties); corruption mutates the winning copy's
/// bits via [`Corruptible`]. Returns what was actually delivered plus the
/// fault tally.
///
/// This is the universal transport-tampering bridge: any schema's decoder
/// can be run on the returned map, extending `tests/tamper.rs`-style
/// soundness checks from advice tampered at rest to advice tampered in
/// transit.
///
/// # Errors
///
/// [`RobustDecodeError::Undelivered`] if any node's advice never arrived
/// within the budget (sustained drops or a crash-stopped node).
pub fn deliver_advice(
    net: &Network,
    advice: &AdviceMap,
    plan: &FaultPlan,
    budget: usize,
) -> Result<(AdviceMap, FaultStats), RobustDecodeError> {
    let g = net.graph();
    let mut delivered = AdviceMap::empty(g.n());
    let mut stats = FaultStats::default();
    let mut starved = Vec::new();
    for v in g.nodes() {
        let mut best: Option<(usize, BitString)> = None;
        for round in 1..=budget {
            match plan.fate(round, v, 0) {
                Fate::Suppressed => stats.suppressed += 1,
                Fate::Dropped => stats.dropped += 1,
                Fate::Deliver(copies) => {
                    stats.duplicated += copies.len() as u64 - 1;
                    for copy in copies {
                        if copy.delay > 0 {
                            stats.delayed += 1;
                        }
                        let arrival = round + copy.delay;
                        if arrival > budget {
                            continue; // still in flight when the run ends
                        }
                        stats.delivered += 1;
                        let mut bits = advice.get(v).clone();
                        if let Some(entropy) = copy.corrupt {
                            bits.corrupt(entropy);
                            stats.corrupted += 1;
                        }
                        if best.as_ref().is_none_or(|(a, _)| arrival < *a) {
                            best = Some((arrival, bits));
                        }
                    }
                }
            }
        }
        match best {
            Some((_, bits)) => {
                if !bits.is_empty() {
                    delivered.set(v, bits);
                }
            }
            None => starved.push(net.uid(v)),
        }
    }
    if !starved.is_empty() {
        return Err(RobustDecodeError::Undelivered { nodes: starved });
    }
    Ok((delivered, stats))
}

/// A schema paired with the LCL its output must satisfy: decoding is
/// followed by a distributed re-verification, and outputs are released
/// only when every node accepted.
///
/// Same pairing as [`crate::proofs::ProofSystem`], but packaged as a
/// *decoder* (output-or-typed-error) rather than a verifier verdict — the
/// shape the fault matrix composes with [`deliver_advice`].
pub struct CheckedSchema<'a, S, F> {
    schema: &'a S,
    lcl: &'a dyn Lcl,
    to_labeling: F,
}

impl<'a, S, F> CheckedSchema<'a, S, F>
where
    S: AdviceSchema,
    S::Output: Clone,
    F: Fn(&Network, S::Output) -> Labeling,
{
    /// Builds a checked schema; `to_labeling` converts the schema output
    /// into the LCL's label format.
    pub fn new(schema: &'a S, lcl: &'a dyn Lcl, to_labeling: F) -> Self {
        CheckedSchema {
            schema,
            lcl,
            to_labeling,
        }
    }

    /// Decodes and re-verifies: the returned output is guaranteed to have
    /// passed the distributed LCL checker. The round stats compose the
    /// decode and the check (sequential execution).
    ///
    /// # Errors
    ///
    /// [`RobustDecodeError::Decode`] if the decoder rejected the advice;
    /// [`RobustDecodeError::Rejected`] if it decoded but some neighborhood
    /// check failed.
    pub fn decode_checked(
        &self,
        net: &Network,
        advice: &AdviceMap,
    ) -> Result<(S::Output, RoundStats), RobustDecodeError> {
        let (output, decode_stats) = self.schema.decode(net, advice)?;
        let labeling = (self.to_labeling)(net, output.clone());
        let (violations, check_stats) = verify::verify_distributed(net, self.lcl, &labeling);
        if !violations.is_empty() {
            return Err(RobustDecodeError::Rejected {
                violations: violations.len(),
            });
        }
        Ok((output, decode_stats.sequential(&check_stats)))
    }
}

/// Runs the balanced-orientation decoder on views assembled by
/// fault-tolerant flooding over `transport`, with a round budget of
/// `budget ≥ decode_radius` (extra rounds heal drops).
///
/// This is the fully transported decode path: advice rides inside the
/// flooded [`NodeRecord`]s, so the transport can tamper with *everything*
/// a node learns — structure and advice alike. Structural tampering is
/// caught by gather validation; advice tampering by the decoder; plausible
/// but-wrong outputs by [`decode_gathered_checked`]'s LCL layer.
///
/// On a fault-free transport the result is bit-identical to
/// [`AdviceSchema::decode`] and `rounds_used` equals the decode radius.
///
/// # Errors
///
/// [`RobustDecodeError::Gather`] when flooding could not assemble valid
/// views; [`RobustDecodeError::Decode`] when a view decoded inconsistently.
///
/// # Panics
///
/// Panics if `budget < schema.decode_radius()` (see
/// [`lad_runtime::run_gathered_robust`]).
pub fn decode_gathered(
    schema: &BalancedOrientationSchema,
    net: &Network,
    advice: &AdviceMap,
    transport: &mut impl Transport<Vec<NodeRecord<BitString>>>,
    budget: usize,
) -> Result<(Orientation, GatherReport), RobustDecodeError> {
    if advice.n() != net.graph().n() {
        return Err(RobustDecodeError::Decode(DecodeError::Inconsistent(
            "advice covers a different node count".into(),
        )));
    }
    let advised = net.with_inputs(advice.strings());
    let (per_node, report) = lad_runtime::run_gathered_robust(
        &advised,
        schema.decode_radius(),
        budget,
        transport,
        |ball| schema.decode_view(ball),
    )?;
    // First decoder error in node order, matching the executors' fallible
    // contract.
    let mut claims = Vec::with_capacity(per_node.len());
    for result in per_node {
        claims.push(result?);
    }
    let orientation = aggregate_claims(net, &claims)?;
    Ok((orientation, report))
}

/// [`decode_gathered`] plus the LCL layer: the orientation is released
/// only if the distributed checker for `lcl` accepts it in every
/// neighborhood.
///
/// # Errors
///
/// Everything [`decode_gathered`] returns, plus
/// [`RobustDecodeError::Rejected`] when the checker refuses the decoded
/// orientation.
///
/// # Panics
///
/// Panics if `budget < schema.decode_radius()`.
pub fn decode_gathered_checked(
    schema: &BalancedOrientationSchema,
    net: &Network,
    advice: &AdviceMap,
    transport: &mut impl Transport<Vec<NodeRecord<BitString>>>,
    budget: usize,
    lcl: &dyn Lcl,
) -> Result<(Orientation, GatherReport), RobustDecodeError> {
    let (orientation, report) = decode_gathered(schema, net, advice, transport, budget)?;
    let labeling = orientation_labeling(net, orientation.clone());
    let (violations, _) = verify::verify_distributed(net, lcl, &labeling);
    if !violations.is_empty() {
        return Err(RobustDecodeError::Rejected {
            violations: violations.len(),
        });
    }
    Ok((orientation, report))
}

#[cfg(test)]
mod tests {
    use super::*;
    use lad_graph::generators;
    use lad_lcl::problems::AlmostBalancedOrientation;
    use lad_runtime::PerfectLink;

    fn cycle_instance(n: usize) -> (Network, AdviceMap, BalancedOrientationSchema) {
        let net = Network::with_identity_ids(generators::cycle(n));
        let schema = BalancedOrientationSchema::default();
        let advice = schema.encode(&net).expect("encode");
        (net, advice, schema)
    }

    #[test]
    fn fault_free_delivery_is_the_identity() {
        let (net, advice, _) = cycle_instance(60);
        let plan = FaultPlan::new(1);
        let (delivered, stats) = deliver_advice(&net, &advice, &plan, 1).unwrap();
        assert_eq!(delivered.strings(), advice.strings());
        assert_eq!(stats.total_faults(), 0);
        assert_eq!(stats.delivered, 60, "one clean copy per node");
    }

    #[test]
    fn blackout_delivery_is_typed_starvation() {
        let (net, advice, _) = cycle_instance(20);
        let plan = FaultPlan::new(2).drop_rate(1.0);
        match deliver_advice(&net, &advice, &plan, 8) {
            Err(RobustDecodeError::Undelivered { nodes }) => assert_eq!(nodes.len(), 20),
            other => panic!("expected Undelivered, got {other:?}"),
        }
    }

    #[test]
    fn drops_heal_with_retransmission() {
        let (net, advice, schema) = cycle_instance(80);
        let plan = FaultPlan::new(7).drop_rate(0.4);
        let (delivered, stats) = deliver_advice(&net, &advice, &plan, 40).unwrap();
        assert!(stats.dropped > 0, "the plan really dropped sends");
        assert_eq!(delivered.strings(), advice.strings());
        let (o, _) = schema.decode(&net, &delivered).unwrap();
        assert!(o.is_almost_balanced(net.graph()));
    }

    #[test]
    fn checked_schema_accepts_honest_and_is_deterministic() {
        let (net, advice, schema) = cycle_instance(100);
        let lcl = AlmostBalancedOrientation;
        let checked = CheckedSchema::new(&schema, &lcl, orientation_labeling);
        let (o1, stats) = checked.decode_checked(&net, &advice).unwrap();
        let (o2, _) = checked.decode_checked(&net, &advice).unwrap();
        assert_eq!(o1, o2);
        assert!(
            stats.rounds() >= schema.decode_radius(),
            "decode + check rounds"
        );
    }

    #[test]
    fn gathered_decode_matches_direct_decode_on_perfect_link() {
        let (net, advice, schema) = cycle_instance(50);
        let (direct, _) = schema.decode(&net, &advice).unwrap();
        let budget = schema.decode_radius() + 4;
        let (gathered, report) =
            decode_gathered(&schema, &net, &advice, &mut PerfectLink, budget).unwrap();
        assert_eq!(gathered, direct);
        assert_eq!(report.rounds_used, schema.decode_radius());
        assert_eq!(report.faults.total_faults(), 0);
    }

    #[test]
    fn corrupting_transport_never_yields_unchecked_output() {
        let (net, advice, schema) = cycle_instance(40);
        let lcl = AlmostBalancedOrientation;
        let budget = schema.decode_radius() + 6;
        for seed in 0..6 {
            let plan = FaultPlan::new(seed).corrupt_rate(0.05);
            let mut run = plan.start();
            match decode_gathered_checked(&schema, &net, &advice, &mut run, budget, &lcl) {
                Ok((o, _)) => {
                    // Acceptance is sound by construction: the checker
                    // verified it.
                    assert!(o.is_almost_balanced(net.graph()));
                }
                Err(
                    RobustDecodeError::Gather(_)
                    | RobustDecodeError::Decode(_)
                    | RobustDecodeError::Rejected { .. },
                ) => {}
                Err(other) => panic!("unexpected error shape: {other:?}"),
            }
        }
    }
}
