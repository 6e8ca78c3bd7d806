//! Error types shared by all schemas.

use lad_graph::NodeId;
use std::fmt;

/// Why an encoder could not produce advice for a graph.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EncodeError {
    /// The problem has no solution on this graph (e.g., asking for a
    /// Δ-coloring of a non-Δ-colorable graph).
    SolutionDoesNotExist(String),
    /// A placement step (anchor shifting, group selection, path embedding)
    /// failed even after Moser–Tardos retries.
    PlacementFailed(String),
    /// A centralized search exceeded its configured budget.
    SearchBudgetExceeded(String),
    /// The graph violates a precondition of the schema (e.g., odd degrees
    /// for the even-degree balanced-orientation schema).
    Unsupported(String),
}

impl fmt::Display for EncodeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EncodeError::SolutionDoesNotExist(m) => write!(f, "no solution exists: {m}"),
            EncodeError::PlacementFailed(m) => write!(f, "advice placement failed: {m}"),
            EncodeError::SearchBudgetExceeded(m) => {
                write!(f, "centralized search budget exceeded: {m}")
            }
            EncodeError::Unsupported(m) => write!(f, "unsupported input: {m}"),
        }
    }
}

impl std::error::Error for EncodeError {}

/// Why a decoder rejected its advice.
///
/// Decoders are *verifiers* in the locally-checkable-proof reading of the
/// paper (Section 1.2): on tampered advice they must be able to reject, so
/// these errors are part of the contract, not just diagnostics.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DecodeError {
    /// A node found its advice (or the advice in its view) inconsistent.
    MalformedAdvice {
        /// The rejecting node.
        node: NodeId,
        /// What was wrong.
        reason: String,
    },
    /// Two nodes decoded contradictory values for a shared object.
    Inconsistent(String),
    /// The decoded output failed final validation.
    InvalidOutput(String),
    /// A class memo observed one canonical view producing two different
    /// step results — the step is not order-invariant. The run refuses
    /// rather than share outputs across a class that is not actually
    /// uniform.
    NotOrderInvariant(lad_runtime::NotOrderInvariant),
}

impl DecodeError {
    /// Convenience constructor for [`DecodeError::MalformedAdvice`].
    pub fn malformed(node: NodeId, reason: impl Into<String>) -> Self {
        DecodeError::MalformedAdvice {
            node,
            reason: reason.into(),
        }
    }
}

impl fmt::Display for DecodeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DecodeError::MalformedAdvice { node, reason } => {
                write!(f, "malformed advice at {node}: {reason}")
            }
            DecodeError::Inconsistent(m) => write!(f, "inconsistent decoding: {m}"),
            DecodeError::InvalidOutput(m) => write!(f, "decoded output invalid: {m}"),
            DecodeError::NotOrderInvariant(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for DecodeError {}

impl From<lad_runtime::NotOrderInvariant> for DecodeError {
    fn from(e: lad_runtime::NotOrderInvariant) -> Self {
        DecodeError::NotOrderInvariant(e)
    }
}

impl From<lad_runtime::HaloExceeded> for DecodeError {
    fn from(e: lad_runtime::HaloExceeded) -> Self {
        // A too-shallow halo is an inconsistency between the shard
        // configuration and the decoder's radius demand, not bad advice:
        // the caller should rebuild views with a deeper halo and rerun.
        DecodeError::Inconsistent(e.to_string())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages() {
        let e = EncodeError::Unsupported("odd degree".into());
        assert!(e.to_string().contains("odd degree"));
        let d = DecodeError::malformed(NodeId(3), "bad marker");
        assert!(d.to_string().contains("v3"));
        assert!(d.to_string().contains("bad marker"));
    }
}
