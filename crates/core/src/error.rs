//! The unified error hierarchy for the ownership workflow.
//!
//! One enum covers every failure a party can hit — malformed wire bytes,
//! an unsatisfiable witness, a forged proof, a *valid* proof that merely
//! attests the watermark is absent, and circuit-identity mismatches — so
//! callers match on one type end to end instead of juggling `Option`s and
//! per-layer error enums.

use crate::artifact::{CircuitId, WireError};
use alloc::string::String;
use zkrownn_groth16::VerificationError;
use zkrownn_r1cs::SynthesisError;

/// Everything that can go wrong in the ZKROWNN workflow.
#[derive(Debug, Clone, PartialEq)]
pub enum ZkrownnError {
    /// An artifact failed to decode (bad envelope, corrupted payload,
    /// invalid curve point, …).
    Wire(WireError),
    /// The witness does not satisfy the extraction circuit at the given row
    /// (internal bug — an honest spec always satisfies it; the *verdict*
    /// may still be 0).
    UnsatisfiedCircuit(usize),
    /// A proving-mode synthesis failed — e.g. the circuit was constructed
    /// without its witness (setup-side circuits cannot prove).
    Synthesis(SynthesisError),
    /// The proof does not verify: it is forged, tampered with, or bound to
    /// different public inputs (e.g. another model's weights).
    InvalidProof(VerificationError),
    /// The proof is *cryptographically valid* but attests verdict 0: the
    /// watermark was **not** recovered within the BER threshold. Distinct
    /// from [`Self::InvalidProof`] so a dispute can tell "forged claim"
    /// from "watermark genuinely absent".
    NegativeVerdict,
    /// The claim's statement is not the statement the verifier is bound
    /// to: the proof may be sound, but it is about a *different* model
    /// than the one under dispute.
    StatementMismatch,
    /// Artifacts disagree about which circuit they belong to.
    CircuitMismatch {
        /// The circuit id the verifier (or the claim's proof) expected.
        expected: CircuitId,
        /// The circuit id actually found.
        got: CircuitId,
    },
    /// No verifying key is registered for the claim's circuit.
    UnknownCircuit(CircuitId),
    /// A segmented key store (`.zkst`) could not be opened or streamed —
    /// I/O failure, corruption, or a key that does not match the circuit.
    /// Carries the rendered [`zkrownn_store::StoreError`] (this enum is
    /// `Clone + PartialEq`, which `std::io::Error` is not).
    Store(String),
    /// The verifier lost this claim before it could answer — e.g. the
    /// thread checking the batch it rode in died. Says nothing about the
    /// claim itself; it can be filed again.
    Internal(&'static str),
}

impl core::fmt::Display for ZkrownnError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            Self::Wire(e) => write!(f, "artifact decode failed: {e}"),
            Self::UnsatisfiedCircuit(i) => write!(f, "extraction circuit violated at row {i}"),
            Self::Synthesis(e) => write!(f, "circuit synthesis failed: {e}"),
            Self::InvalidProof(e) => write!(f, "ownership proof rejected: {e}"),
            Self::NegativeVerdict => write!(
                f,
                "proof is valid but attests a negative verdict (watermark not recovered)"
            ),
            Self::StatementMismatch => write!(
                f,
                "claim is about a different statement than the one under dispute"
            ),
            Self::CircuitMismatch { expected, got } => write!(
                f,
                "circuit mismatch: expected {}, got {}",
                expected.short(),
                got.short()
            ),
            Self::UnknownCircuit(id) => {
                write!(f, "no verifying key registered for circuit {}", id.short())
            }
            Self::Store(e) => write!(f, "key store failed: {e}"),
            Self::Internal(what) => write!(f, "verifier failed, claim not decided: {what}"),
        }
    }
}

#[cfg(feature = "std")]
impl std::error::Error for ZkrownnError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            Self::Wire(e) => Some(e),
            Self::InvalidProof(e) => Some(e),
            _ => None,
        }
    }
}

impl From<WireError> for ZkrownnError {
    fn from(e: WireError) -> Self {
        Self::Wire(e)
    }
}

impl From<SynthesisError> for ZkrownnError {
    fn from(e: SynthesisError) -> Self {
        Self::Synthesis(e)
    }
}

impl From<VerificationError> for ZkrownnError {
    fn from(e: VerificationError) -> Self {
        Self::InvalidProof(e)
    }
}

/// An in-memory proving key cannot fail; this lets code generic over a
/// `KeySource`'s error type end in `ZkrownnError`.
impl From<core::convert::Infallible> for ZkrownnError {
    fn from(e: core::convert::Infallible) -> Self {
        match e {}
    }
}

#[cfg(feature = "std")]
impl From<zkrownn_store::StoreError> for ZkrownnError {
    fn from(e: zkrownn_store::StoreError) -> Self {
        Self::Store(e.to_string())
    }
}
