//! First-class schema composition — the paper's Lemma 1 as an API.
//!
//! The composability framework (Section 9) composes (1) a schema for `Π₁`
//! with (2) a schema for `Π₂` *given an oracle for* `Π₁` into (3) a schema
//! for `Π₂` alone. Here:
//!
//! - [`OracleSchema`] is the type of (2): its decoder additionally
//!   receives the oracle output;
//! - [`Composed`] is the lemma: it multiplexes the two advice tracks into
//!   one ([`crate::tracks`]), decodes the base schema first, and feeds its
//!   output into the oracle-consuming decoder. Round statistics add
//!   sequentially, exactly as the composed LOCAL algorithm would run.
//!
//! [`ParityOracleSchema`] (2-coloring a bipartite graph given *any*
//! oracle, with ruling-set parity anchors) is the running example from
//! Section 3.5: composing it over the balanced-orientation schema yields
//! the splitting schema — see the tests, which check the composition
//! reproduces `lad_core::splitting` behavior.

use crate::advice::AdviceMap;
use crate::bits::BitString;
use crate::error::{DecodeError, EncodeError};
use crate::schema::AdviceSchema;
use crate::tracks::{demultiplex, multiplex};
use lad_graph::{coloring, ruling};
use lad_runtime::{Network, RoundStats, Run};

/// A schema whose decoder consumes the output of another schema (the
/// "oracle" of the paper's composability definition).
pub trait OracleSchema {
    /// The oracle's output type.
    type Oracle;
    /// What this schema's decoder produces.
    type Output;

    /// Human-readable name.
    fn name(&self) -> String;

    /// Centralized encoding. The encoder may inspect the oracle output it
    /// will be composed with (the paper's encoder fixes both solutions).
    ///
    /// # Errors
    ///
    /// See [`EncodeError`].
    fn encode_with(&self, net: &Network, oracle: &Self::Oracle) -> Result<AdviceMap, EncodeError>;

    /// Distributed decoding given the oracle output, fanning out under
    /// `run`.
    ///
    /// # Errors
    ///
    /// See [`DecodeError`].
    fn decode_with(
        &self,
        net: &Network,
        advice: &AdviceMap,
        oracle: &Self::Oracle,
        run: &Run,
    ) -> Result<(Self::Output, RoundStats), DecodeError>;
}

/// Lemma 1: the composition of a base schema and an oracle-consuming
/// schema, as a plain [`AdviceSchema`].
#[derive(Debug, Clone, Copy)]
pub struct Composed<A, B> {
    /// The `Π₁` schema (provides the oracle).
    pub base: A,
    /// The `Π₂`-given-`Π₁` schema.
    pub over: B,
}

impl<A, B> Composed<A, B> {
    /// Composes `over` on top of `base`.
    pub fn new(base: A, over: B) -> Self {
        Composed { base, over }
    }
}

impl<A, B> AdviceSchema for Composed<A, B>
where
    A: AdviceSchema,
    B: OracleSchema<Oracle = A::Output>,
{
    type Output = B::Output;

    fn name(&self) -> String {
        format!("{} ∘ {}", self.over.name(), self.base.name())
    }

    fn encode_with(&self, net: &Network, run: &Run) -> Result<AdviceMap, EncodeError> {
        let base_advice = self.base.encode_with(net, run)?;
        let (oracle, _) = self
            .base
            .decode_with(net, &base_advice, run)
            .map_err(|e| EncodeError::PlacementFailed(format!("base self-decode failed: {e}")))?;
        let over_advice = OracleSchema::encode_with(&self.over, net, &oracle)?;
        Ok(multiplex(&[&base_advice, &over_advice]))
    }

    fn decode_with(
        &self,
        net: &Network,
        advice: &AdviceMap,
        run: &Run,
    ) -> Result<(Self::Output, RoundStats), DecodeError> {
        let tracks = demultiplex(advice, 2).ok_or_else(|| {
            DecodeError::Inconsistent("advice does not split into two tracks".into())
        })?;
        let (oracle, stats_a) = self.base.decode_with(net, &tracks[0], run)?;
        let (out, stats_b) = OracleSchema::decode_with(&self.over, net, &tracks[1], &oracle, run)?;
        Ok((out, stats_a.sequential(&stats_b)))
    }
}

/// The running example's `Π_v` with a generic oracle slot: recover a
/// globally consistent 2-coloring of a bipartite graph from ruling-set
/// parity anchors. (The oracle is ignored by this particular schema — its
/// role is to slot into [`Composed`]; a schema that *uses* its oracle is
/// [`SplitFromParts`] below.)
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ParityOracleSchema<O> {
    /// Anchors form a `(spacing, spacing − 1)`-ruling set.
    pub spacing: usize,
    _marker: std::marker::PhantomData<fn() -> O>,
}

impl<O> ParityOracleSchema<O> {
    /// A parity schema with the given anchor spacing.
    ///
    /// # Panics
    ///
    /// Panics if `spacing == 0`.
    pub fn new(spacing: usize) -> Self {
        assert!(spacing >= 1);
        ParityOracleSchema {
            spacing,
            _marker: std::marker::PhantomData,
        }
    }
}

impl<O> OracleSchema for ParityOracleSchema<O> {
    type Oracle = O;
    type Output = Vec<bool>;

    fn name(&self) -> String {
        format!("2-coloring-parity(spacing={})", self.spacing)
    }

    fn encode_with(&self, net: &Network, _oracle: &O) -> Result<AdviceMap, EncodeError> {
        let g = net.graph();
        let chi = coloring::bipartition(g)
            .ok_or_else(|| EncodeError::Unsupported("graph is not bipartite".into()))?;
        let mut advice = AdviceMap::empty(g.n());
        for r in ruling::ruling_set(g, self.spacing) {
            advice.set(r, BitString::one_bit(chi[r.index()] == 1));
        }
        Ok(advice)
    }

    fn decode_with(
        &self,
        net: &Network,
        advice: &AdviceMap,
        _oracle: &O,
        run: &Run,
    ) -> Result<(Vec<bool>, RoundStats), DecodeError> {
        let advised = net.with_inputs(advice.strings());
        let spacing = self.spacing;
        run.try_nodes(&advised, |ctx| {
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
            Ok(bit ^ (d % 2 == 1))
        })
    }
}

/// The trivial final step of the running example (`Π_e` of Section 3.5):
/// given an orientation (the oracle) and a 2-coloring, color red the edges
/// oriented out of white nodes — no advice at all.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SplitFromParts;

impl OracleSchema for SplitFromParts {
    /// Oracle: the orientation and the 2-coloring, already decoded.
    type Oracle = (lad_graph::Orientation, Vec<bool>);
    type Output = Vec<usize>;

    fn name(&self) -> String {
        "splitting-from-orientation-and-coloring".into()
    }

    fn encode_with(&self, net: &Network, _oracle: &Self::Oracle) -> Result<AdviceMap, EncodeError> {
        Ok(AdviceMap::empty(net.graph().n()))
    }

    fn decode_with(
        &self,
        net: &Network,
        advice: &AdviceMap,
        (orientation, colors): &Self::Oracle,
        _run: &Run,
    ) -> Result<(Vec<usize>, RoundStats), DecodeError> {
        if advice.total_bits() != 0 {
            return Err(DecodeError::Inconsistent(
                "this schema takes no advice".into(),
            ));
        }
        let g = net.graph();
        let labels = g
            .edge_ids()
            .map(|e| usize::from(colors[orientation.tail(g, e).index()]))
            .collect();
        // Zero extra rounds: each edge's label is determined at its tail.
        Ok((labels, RoundStats::zero(g.n())))
    }
}

/// A pairing adapter so two independent decodings can feed one oracle slot.
#[derive(Debug, Clone, Copy)]
pub struct Paired<A, B> {
    /// First schema.
    pub first: A,
    /// Second schema (an oracle consumer over the first's output).
    pub second: B,
}

impl<A, B> AdviceSchema for Paired<A, B>
where
    A: AdviceSchema,
    A::Output: Clone,
    B: OracleSchema<Oracle = A::Output>,
{
    type Output = (A::Output, B::Output);

    fn name(&self) -> String {
        format!("({}, {})", self.first.name(), self.second.name())
    }

    fn encode_with(&self, net: &Network, run: &Run) -> Result<AdviceMap, EncodeError> {
        let a = self.first.encode_with(net, run)?;
        let (oracle, _) = self
            .first
            .decode_with(net, &a, run)
            .map_err(|e| EncodeError::PlacementFailed(format!("self-decode failed: {e}")))?;
        let b = OracleSchema::encode_with(&self.second, net, &oracle)?;
        Ok(multiplex(&[&a, &b]))
    }

    fn decode_with(
        &self,
        net: &Network,
        advice: &AdviceMap,
        run: &Run,
    ) -> Result<(Self::Output, RoundStats), DecodeError> {
        let tracks = demultiplex(advice, 2).ok_or_else(|| {
            DecodeError::Inconsistent("advice does not split into two tracks".into())
        })?;
        let (a, sa) = self.first.decode_with(net, &tracks[0], run)?;
        let (b, sb) = OracleSchema::decode_with(&self.second, net, &tracks[1], &a, run)?;
        Ok(((a, b), sa.sequential(&sb)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::balanced::BalancedOrientationSchema;
    use crate::splitting::is_valid_splitting;
    use lad_graph::generators;

    /// The full Section-3.5 pipeline, rebuilt from the generic combinators:
    /// (orientation ⊕ parity) ∘ split-from-parts.
    fn composed_splitting() -> impl AdviceSchema<Output = Vec<usize>> {
        Composed::new(
            Paired {
                first: BalancedOrientationSchema::default(),
                second: ParityOracleSchema::new(12),
            },
            SplitFromParts,
        )
    }

    #[test]
    fn composition_reproduces_splitting() {
        for (side, d, seed) in [(16usize, 4usize, 1u64), (20, 2, 2)] {
            let g = generators::random_bipartite_regular(side, d, seed);
            let net = Network::with_identity_ids(g);
            let schema = composed_splitting();
            let advice = schema.encode(&net).expect("encode");
            let (labels, stats) = schema.decode(&net, &advice).expect("decode");
            assert!(is_valid_splitting(net.graph(), &labels));
            assert!(stats.rounds() > 0);
        }
    }

    #[test]
    fn composition_on_even_cycle() {
        let net = Network::with_identity_ids(generators::cycle(60));
        let schema = composed_splitting();
        let advice = schema.encode(&net).unwrap();
        let (labels, _) = schema.decode(&net, &advice).unwrap();
        assert!(is_valid_splitting(net.graph(), &labels));
    }

    #[test]
    fn composition_rejects_non_bipartite() {
        let net = Network::with_identity_ids(generators::cycle(7));
        let schema = composed_splitting();
        assert!(matches!(
            schema.encode(&net),
            Err(EncodeError::Unsupported(_))
        ));
    }

    #[test]
    fn tampered_composed_advice_fails_demux_or_decodes_validly() {
        let net = Network::with_identity_ids(generators::cycle(40));
        let schema = composed_splitting();
        let mut advice = schema.encode(&net).unwrap();
        // Corrupt the multiplex framing at one holder.
        let holder = advice.holders().next().unwrap();
        let mut s = advice.get(holder).clone();
        s.push(true);
        advice.set(holder, s);
        match schema.decode(&net, &advice) {
            Err(_) => {}
            Ok((labels, _)) => assert!(is_valid_splitting(net.graph(), &labels)),
        }
    }
}
