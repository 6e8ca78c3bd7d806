//! The advice-schema trait (Definition 3.4).

use crate::advice::AdviceMap;
use crate::error::{DecodeError, EncodeError};
use lad_runtime::{Network, RoundStats, Run, RunReport};

/// An advice schema: a centralized encoder paired with a LOCAL decoder.
///
/// The encoder (`f` in Definition 3.4) sees the entire graph — including
/// the identifier assignment, which the paper explicitly allows advice to
/// depend on — and produces an [`AdviceMap`]. The decoder (`A` in the
/// definition) runs in the LOCAL model over the advised network; its round
/// complexity is measured by the runtime and must be a function of `Δ` and
/// the schema's parameters only.
///
/// Both directions run under a caller's [`Run`] spec — its thread count
/// for every fan-out, its path for every decode ladder — and never depend
/// on it for their results. [`AdviceSchema::encode`] and
/// [`AdviceSchema::decode`] are the same calls under [`Run::default`].
pub trait AdviceSchema {
    /// What the decoder reconstructs.
    type Output;

    /// Human-readable schema name (for tables and error messages).
    fn name(&self) -> String;

    /// Centralized encoding, fanning out under `run`.
    ///
    /// # Errors
    ///
    /// See [`EncodeError`]; typically when the underlying problem has no
    /// solution on this graph, or a placement search fails.
    fn encode_with(&self, net: &Network, run: &Run) -> Result<AdviceMap, EncodeError>;

    /// Distributed decoding under `run`, returning the run's report: the
    /// path every decode ladder took and the memo counters of those that
    /// memoized.
    ///
    /// # Errors
    ///
    /// See [`DecodeError`]; a correct decoder must reject tampered advice
    /// rather than output garbage silently wherever it can detect it —
    /// that property is what turns schemas into locally checkable proofs
    /// (Section 1.2 of the paper).
    fn decode_with(
        &self,
        net: &Network,
        advice: &AdviceMap,
        run: &Run,
    ) -> Result<(Self::Output, RoundStats, RunReport), DecodeError>;

    /// [`AdviceSchema::encode_with`] under the default run.
    ///
    /// # Errors
    ///
    /// See [`AdviceSchema::encode_with`].
    fn encode(&self, net: &Network) -> Result<AdviceMap, EncodeError> {
        self.encode_with(net, &Run::default())
    }

    /// [`AdviceSchema::decode_with`] under the default run, without its
    /// report.
    ///
    /// # Errors
    ///
    /// See [`AdviceSchema::decode_with`].
    fn decode(
        &self,
        net: &Network,
        advice: &AdviceMap,
    ) -> Result<(Self::Output, RoundStats), DecodeError> {
        let (output, stats, _) = self.decode_with(net, advice, &Run::default())?;
        Ok((output, stats))
    }

    /// Whether this schema's per-node decode step is **order-invariant**:
    /// a pure function of the canonical form of the advice-labeled ball
    /// (identifiers used only through order comparisons, never their
    /// numerical values — the paper's Section 8 condition).
    ///
    /// Schemas that return `true` decode through a memoizable ladder
    /// ([`Run::ladder`]), which may evaluate the decoder once per
    /// isomorphism class instead of once per node. The declaration is
    /// checked at runtime: the memo executor re-derives sampled entries
    /// and aborts with [`DecodeError::NotOrderInvariant`] on any
    /// disagreement, so a wrong `true` degrades to a typed error, never
    /// to silently shared wrong outputs.
    fn decoder_order_invariant(&self) -> bool {
        false
    }
}

/// The outcome of a full encode → decode → validate round trip, as used by
/// the evaluation harness.
#[derive(Debug, Clone)]
pub struct RoundTrip<T> {
    /// The decoded output.
    pub output: T,
    /// Advice produced by the encoder.
    pub advice: AdviceMap,
    /// Decoder locality.
    pub stats: RoundStats,
}

/// Runs `schema` end to end on `net`.
///
/// # Errors
///
/// Propagates encoder and decoder failures (boxed, since they differ).
pub fn round_trip<S: AdviceSchema>(
    schema: &S,
    net: &Network,
) -> Result<RoundTrip<S::Output>, Box<dyn std::error::Error>> {
    let advice = schema.encode(net)?;
    let (output, stats) = schema.decode(net, &advice)?;
    Ok(RoundTrip {
        output,
        advice,
        stats,
    })
}
