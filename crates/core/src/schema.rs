//! The advice-schema trait (Definition 3.4).

use crate::advice::AdviceMap;
use crate::error::{DecodeError, EncodeError};
use lad_runtime::{Network, RoundStats, Run};

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
/// for every fan-out and decode ladder — and never depend on it for their
/// results. [`AdviceSchema::encode`] and
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

    /// Distributed decoding under `run`.
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
    ) -> Result<(Self::Output, RoundStats), DecodeError>;

    /// [`AdviceSchema::encode_with`] under the default run.
    ///
    /// # Errors
    ///
    /// See [`AdviceSchema::encode_with`].
    fn encode(&self, net: &Network) -> Result<AdviceMap, EncodeError> {
        self.encode_with(net, &Run::default())
    }

    /// [`AdviceSchema::decode_with`] under the default run.
    ///
    /// # Errors
    ///
    /// See [`AdviceSchema::decode_with`].
    fn decode(
        &self,
        net: &Network,
        advice: &AdviceMap,
    ) -> Result<(Self::Output, RoundStats), DecodeError> {
        self.decode_with(net, advice, &Run::default())
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
