//! Groth16 verifier.
//!
//! Checks `e(A, B) = e(α, β) · e(Σ xᵢ·γ_abcᵢ, γ) · e(C, δ)` with a single
//! product of three Miller loops and one final exponentiation. This is the
//! millisecond-scale, publicly-runnable step that the paper's third-party
//! verifiers execute.

use crate::keys::{PreparedVerifyingKey, Proof, VerifyingKey};
use alloc::vec::Vec;
use zkrownn_curves::msm::msm;
use zkrownn_curves::G1Projective;
use zkrownn_ff::Fr;
use zkrownn_pairing::{multi_pairing, G2Prepared};

/// Errors returned by proof verification.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum VerificationError {
    /// The number of public inputs does not match the verifying key.
    InputLengthMismatch {
        /// Inputs the key expects (excluding the leading constant 1).
        expected: usize,
        /// Inputs supplied.
        got: usize,
    },
    /// The pairing equation does not hold.
    InvalidProof,
}

impl core::fmt::Display for VerificationError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            Self::InputLengthMismatch { expected, got } => {
                write!(f, "expected {expected} public inputs, got {got}")
            }
            Self::InvalidProof => write!(f, "pairing check failed"),
        }
    }
}

#[cfg(feature = "std")]
impl std::error::Error for VerificationError {}

/// Folds a public-input vector into the instance commitment
/// `γ_abc[0] + Σ xᵢ·γ_abc[i+1]` — the MSM half of verification.
///
/// Many claims against the *same* statement share this point; compute it
/// once and reuse it with [`verify_proof_with_prepared_inputs`] or
/// [`verify_proofs_batch_prepared`], paying only the pairing work per
/// proof. `public_inputs` excludes the leading constant 1.
pub fn prepare_inputs(
    pvk: &PreparedVerifyingKey,
    public_inputs: &[Fr],
) -> Result<PreparedInputs, VerificationError> {
    if public_inputs.len() + 1 != pvk.gamma_abc_g1.len() {
        return Err(VerificationError::InputLengthMismatch {
            expected: pvk.gamma_abc_g1.len() - 1,
            got: public_inputs.len(),
        });
    }
    Ok(PreparedInputs {
        acc: pvk.gamma_abc_g1[0].into_projective() + msm(&pvk.gamma_abc_g1[1..], public_inputs),
    })
}

/// A public-input vector pre-folded into its instance commitment (see
/// [`prepare_inputs`]). Opaque so it can only come from a length-checked
/// preparation.
#[derive(Clone, Debug)]
pub struct PreparedInputs {
    acc: G1Projective,
}

impl PreparedInputs {
    /// The committed instance point `γ_abc[0] + Σ xᵢ·γ_abc[i+1]`.
    pub fn commitment(&self) -> G1Projective {
        self.acc
    }
}

/// Verifies a proof against prepared verification material and a
/// pre-folded instance commitment — the per-proof cost is pairings only.
pub fn verify_proof_with_prepared_inputs(
    pvk: &PreparedVerifyingKey,
    proof: &Proof,
    inputs: &PreparedInputs,
) -> Result<(), VerificationError> {
    // e(A, B) · e(−acc, γ) · e(−C, δ) == e(α, β)
    let lhs = multi_pairing(&[
        (proof.a, G2Prepared::from(proof.b)),
        (inputs.acc.into_affine().neg(), pvk.gamma_prepared.clone()),
        (proof.c.neg(), pvk.delta_prepared.clone()),
    ]);
    if lhs == pvk.alpha_beta {
        Ok(())
    } else {
        Err(VerificationError::InvalidProof)
    }
}

/// Verifies a proof against prepared verification material.
///
/// `public_inputs` excludes the leading constant 1.
pub fn verify_proof_prepared(
    pvk: &PreparedVerifyingKey,
    proof: &Proof,
    public_inputs: &[Fr],
) -> Result<(), VerificationError> {
    let inputs = prepare_inputs(pvk, public_inputs)?;
    verify_proof_with_prepared_inputs(pvk, proof, &inputs)
}

/// Verifies a proof against a raw verifying key (prepares it internally).
pub fn verify_proof(
    vk: &VerifyingKey,
    proof: &Proof,
    public_inputs: &[Fr],
) -> Result<(), VerificationError> {
    verify_proof_prepared(&vk.prepare(), proof, public_inputs)
}

/// Batch verification of many proofs under one verifying key, over
/// pre-folded instance commitments ([`prepare_inputs`]).
///
/// Takes a random linear combination of the individual pairing equations
/// (coefficients from `rng`), so all `n` proofs are checked with `n + 2`
/// Miller loops and a single final exponentiation instead of `3n` loops and
/// `n` exponentiations. Claims that share a statement share the (already
/// paid) input MSM, so the marginal cost per proof is one Miller loop and
/// three G1 scalar muls. A batch that fails may contain any number of bad
/// proofs; fall back to individual verification to locate them.
///
/// The first coefficient is fixed at 1 and the other `n − 1` are drawn —
/// the standard form of the test: a lone bad first proof is caught with
/// certainty, any other set of bad proofs with probability `1 − 1/r` as
/// before. So a batch of one draws nothing, multiplies nothing, and is
/// the plain check of [`verify_proof_with_prepared_inputs`].
pub fn verify_proofs_batch_prepared<R: rand::Rng + ?Sized>(
    pvk: &PreparedVerifyingKey,
    batch: &[(Proof, PreparedInputs)],
    rng: &mut R,
) -> Result<(), VerificationError> {
    use zkrownn_ff::{Field, PrimeField};
    let Some(((first, first_inputs), rest)) = batch.split_first() else {
        return Ok(());
    };
    let mut pairs = Vec::with_capacity(batch.len() + 2);
    pairs.push((first.a, G2Prepared::from(first.b)));
    let mut acc_gamma = first_inputs.acc;
    let mut acc_delta = first.c.into_projective();
    let mut r_sum = Fr::one();
    for (proof, inputs) in rest {
        let r = Fr::random(rng);
        r_sum += r;
        // e(r·A, B)
        pairs.push((
            proof.a.mul_scalar(r).into_affine(),
            G2Prepared::from(proof.b),
        ));
        // accumulate r·(γ_abc-combination) and r·C
        acc_gamma += inputs.acc.mul_scalar(r);
        acc_delta += proof.c.mul_scalar(r);
    }
    pairs.push((acc_gamma.neg().into_affine(), pvk.gamma_prepared.clone()));
    pairs.push((acc_delta.neg().into_affine(), pvk.delta_prepared.clone()));
    let lhs = multi_pairing(&pairs);
    if lhs == pvk.alpha_beta.pow(&r_sum.into_bigint().0) {
        Ok(())
    } else {
        Err(VerificationError::InvalidProof)
    }
}
