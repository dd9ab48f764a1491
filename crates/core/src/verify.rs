//! The verifier's side of the protocol: claims, the kit that checks them,
//! and the one predicate that decides them. Everything here is
//! public-data-only and `no_std`-portable — it is the exact surface
//! re-exported by the thin `zkrownn-verifier` crate for wasm and embedded
//! verifiers.
//!
//! "Is this claim valid?" is written once, in `verify_claims`: **admit**
//! each claim (statement binding, circuit identity, input fold — no
//! pairing), fold the admitted positives into one random-linear-combination
//! check *when there are two or more*, and **settle** whatever that did not
//! clear with one plain pairing check and the verdict gate. A batch of one
//! is therefore admit + settle and draws no randomness; [`VerifierKit`],
//! the `std`-only `KeyRegistry` (single and batch), the service's coalescer
//! and `zkrownn_verify` all run these lines.
//!
//! The proving half (authorities, prover kits, key stores) lives in
//! [`crate::session`] and needs `std`.

use crate::artifact::{Artifact, ArtifactKind, CircuitId, OwnershipStatement, Reader, WireError};
use crate::error::ZkrownnError;
use crate::prove::OwnershipProof;
use alloc::collections::BTreeMap;
use alloc::vec::Vec;
use zkrownn_groth16::{
    prepare_inputs, verify_proof_with_prepared_inputs, verify_proofs_batch_prepared,
    PreparedInputs, PreparedVerifyingKey, Proof, VerificationError, VerifyingKey,
};

/// The third-party verifier's side: public data only.
///
/// Holds the verifying key (with pairing precomputation applied once) and
/// the circuit id it vouches for. For many-claim workloads, register the
/// key in a `KeyRegistry` instead and use its `verify_batch` (both
/// `std`-only).
pub struct VerifierKit {
    vk: VerifyingKey,
    pvk: PreparedVerifyingKey,
    circuit_id: CircuitId,
    /// Content digest of the one statement this kit accepts claims about
    /// (the model under dispute). `None` = any same-circuit statement.
    expected_statement: Option<[u8; 32]>,
}

impl VerifierKit {
    /// Builds a kit from a verifying key and the circuit id it belongs to —
    /// e.g. after receiving both from an authority in another process.
    ///
    /// The kit starts *unbound*: it accepts a claim about any model of this
    /// circuit shape, and `Ok(())` then only means "the watermark is in the
    /// model the claimant described". When the dispute is about one
    /// specific model, pin it with [`Self::bind_statement`] (kits issued by
    /// `Authority::setup` come pre-bound to the setup's statement).
    pub fn from_parts(vk: VerifyingKey, circuit_id: CircuitId) -> Self {
        let pvk = vk.prepare();
        Self {
            vk,
            pvk,
            circuit_id,
            expected_statement: None,
        }
    }

    /// Pins this kit to one specific public statement (by its
    /// [`OwnershipStatement::content_digest`]): claims about any other
    /// model — even a same-shaped one — fail with
    /// [`ZkrownnError::StatementMismatch`].
    pub fn bind_statement(mut self, digest: [u8; 32]) -> Self {
        self.expected_statement = Some(digest);
        self
    }

    /// The statement digest this kit is bound to, if any.
    pub fn expected_statement(&self) -> Option<[u8; 32]> {
        self.expected_statement
    }

    /// The circuit this kit verifies.
    pub fn circuit_id(&self) -> CircuitId {
        self.circuit_id
    }

    /// The raw verifying key (for shipping to further verifiers).
    pub fn verifying_key(&self) -> &VerifyingKey {
        &self.vk
    }

    /// Verifies an ownership claim.
    ///
    /// Checks, in order: the claim is about the bound statement (when this
    /// kit is bound — see [`Self::bind_statement`]), the claim belongs to
    /// this kit's circuit, the statement's shape matches the proof's
    /// circuit id, the Groth16 pairing equation holds for the statement's
    /// public inputs, and the attested verdict is positive. A valid proof
    /// of verdict 0 fails with [`ZkrownnError::NegativeVerdict`] —
    /// cryptographically sound, but not an ownership claim.
    pub fn verify(&self, claim: &SignedClaim) -> Result<(), ZkrownnError> {
        let (id, bound) = (self.circuit_id, self.expected_statement);
        verify_claims(&self.pvk, id, bound, &[claim], &mut Undrawn)
            .pop()
            .expect("one verdict per claim")
    }
}

/// The rng handed to a batch of one: `verify_claims` draws RLC coefficients
/// only for two or more positives, so a single claim never asks it.
pub(crate) struct Undrawn;

impl rand::RngCore for Undrawn {
    fn next_u64(&mut self) -> u64 {
        unreachable!("a batch of one draws no RLC coefficient")
    }
}

/// What [`admit`] remembers about one distinct statement for the length of
/// one [`verify_claims`] call: the circuit its shape synthesizes to and the
/// instance commitment for each verdict value, each computed at most once
/// and shared by the combined check *and* the per-claim settle after it.
struct StatementEntry {
    statement_id: CircuitId,
    inputs: [Option<Result<PreparedInputs, VerificationError>>; 2],
}

/// Everything about a claim that is decided without a pairing, in the order
/// callers rely on: the claim is about the `bound` statement (if any), its
/// proof names circuit `id`, its statement's shape synthesizes to `id`, and
/// its public inputs fold into the key's instance commitment.
fn admit(
    pvk: &PreparedVerifyingKey,
    id: CircuitId,
    bound: Option<[u8; 32]>,
    claim: &SignedClaim,
    cache: &mut BTreeMap<[u8; 32], StatementEntry>,
) -> Result<PreparedInputs, ZkrownnError> {
    let digest = claim.statement.content_digest();
    if bound.is_some_and(|expected| expected != digest) {
        return Err(ZkrownnError::StatementMismatch);
    }
    let names_this_circuit = |got: CircuitId| {
        if got == id {
            Ok(())
        } else {
            Err(ZkrownnError::CircuitMismatch { expected: id, got })
        }
    };
    // the cheap half of the identity check: what the proof says it is for
    names_this_circuit(claim.proof.circuit_id)?;
    // the expensive half: one setup-mode synthesis per distinct statement
    let entry = cache.entry(digest).or_insert_with(|| StatementEntry {
        // A statement byte-identical to the bound one is the statement whose
        // synthesis trace produced `id` at setup — no need to re-synthesize
        // it per claim. (Soundness never rested on that check anyway: the
        // pairing equation binds the proof to this circuit-specific key.)
        statement_id: match bound {
            Some(_) => id,
            None => claim.statement.circuit_id(),
        },
        inputs: [None, None],
    });
    names_this_circuit(entry.statement_id)?;
    let verdict = claim.proof.verdict;
    entry.inputs[usize::from(verdict)]
        .get_or_insert_with(|| prepare_inputs(pvk, &claim.statement.public_inputs(verdict)))
        .clone()
        .map_err(ZkrownnError::InvalidProof)
}

/// The cryptographic tail for one admitted claim: a plain pairing check,
/// then the verdict gate. Sound-but-negative and forged stay
/// distinguishable because the gate runs only after the pairing holds.
fn settle(
    pvk: &PreparedVerifyingKey,
    claim: &SignedClaim,
    inputs: &PreparedInputs,
) -> Result<(), ZkrownnError> {
    verify_proof_with_prepared_inputs(pvk, &claim.proof.proof, inputs)
        .map_err(ZkrownnError::InvalidProof)?;
    if !claim.proof.verdict {
        return Err(ZkrownnError::NegativeVerdict);
    }
    Ok(())
}

/// The claim predicate: one `Result` per claim (index-aligned), all against
/// the prepared key of circuit `id`, optionally pinned to the `bound`
/// statement digest.
///
/// Admitted positive claims — two or more of them — are checked with one
/// random-linear-combination pairing equation (coefficients from `rng`).
/// Negatives are never folded in, and when the combined check fails every
/// member is settled on its own, reusing the commitments already prepared,
/// so exactly the bad claims are flagged.
pub(crate) fn verify_claims<R: rand::Rng + ?Sized>(
    pvk: &PreparedVerifyingKey,
    id: CircuitId,
    bound: Option<[u8; 32]>,
    claims: &[&SignedClaim],
    rng: &mut R,
) -> Vec<Result<(), ZkrownnError>> {
    let mut cache = BTreeMap::new();
    let admitted: Vec<_> = claims
        .iter()
        .map(|claim| admit(pvk, id, bound, claim, &mut cache))
        .collect();
    // in the shape `verify_proofs_batch_prepared` consumes
    let positives: Vec<(Proof, PreparedInputs)> = claims
        .iter()
        .zip(&admitted)
        .filter(|(claim, _)| claim.proof.verdict)
        .filter_map(|(claim, inputs)| {
            Some((claim.proof.proof.clone(), inputs.as_ref().ok()?.clone()))
        })
        .collect();
    let cleared =
        positives.len() >= 2 && verify_proofs_batch_prepared(pvk, &positives, rng).is_ok();
    claims
        .iter()
        .zip(admitted)
        .map(|(claim, inputs)| match inputs? {
            _ if cleared && claim.proof.verdict => Ok(()),
            inputs => settle(pvk, claim, &inputs),
        })
        .collect()
}

/// A complete, portable ownership claim: the public statement plus the
/// zero-knowledge proof over it.
///
/// This is the artifact a claimant ships to a verification service —
/// everything needed to check the claim against a registered verifying key,
/// nothing more.
#[derive(Clone, Debug, PartialEq)]
pub struct SignedClaim {
    /// The public circuit description the proof is bound to.
    pub statement: OwnershipStatement,
    /// The proof and its attested verdict.
    pub proof: OwnershipProof,
}

impl SignedClaim {
    /// The circuit this claim targets (as named by its proof).
    pub fn circuit_id(&self) -> CircuitId {
        self.proof.circuit_id
    }

    /// The attested verdict (`true` = watermark recovered within θ).
    pub fn verdict(&self) -> bool {
        self.proof.verdict
    }
}

impl Artifact for SignedClaim {
    const KIND: ArtifactKind = ArtifactKind::Claim;

    fn payload_size(&self) -> usize {
        8 + Artifact::serialized_size(&self.statement) + Artifact::serialized_size(&self.proof)
    }

    fn write_payload(&self, out: &mut Vec<u8>) {
        let statement = Artifact::to_bytes(&self.statement);
        out.extend_from_slice(&(statement.len() as u64).to_le_bytes());
        out.extend_from_slice(&statement);
        out.extend_from_slice(&Artifact::to_bytes(&self.proof));
    }

    fn read_payload(payload: &[u8]) -> Result<Self, WireError> {
        let mut r = Reader::new(payload);
        let statement_len = r.len()?;
        let statement = OwnershipStatement::from_bytes(r.take(statement_len)?)?;
        let proof_len = payload.len() - (8 + statement_len);
        let proof = OwnershipProof::from_bytes(r.take(proof_len)?)?;
        r.finish()?;
        Ok(Self { statement, proof })
    }
}
