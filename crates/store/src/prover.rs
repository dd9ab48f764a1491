//! The store-backed (memory-budgeted) [`KeySource`].
//!
//! The in-memory source holds five point families and runs five monolithic
//! MSMs. Here each family is *streamed* out of the store in budget-sized
//! chunks — decoded without per-point curve checks (the segment checksums
//! are the integrity boundary), folded into a
//! [`zkrownn_curves::MsmAccumulator`], and dropped — so peak memory is the
//! scalar vectors (32 B/element) plus **one** chunk of points, regardless
//! of key size.
//!
//! Everything else about a proof is [`zkrownn_groth16::prove`], the one
//! kernel both sources feed; MSM partial sums add up group-exactly, so a
//! streamed proof is **byte-identical** to the in-memory proof for the
//! same assignment and randomness — pinned by the `streaming` test suite.
//!
//! Corruption safety: every segment's checksum is verified before its
//! accumulated sum can reach the proof assembly; a flipped bit anywhere in
//! a consumed segment yields [`StoreError::SegmentChecksumMismatch`],
//! never a wrong proof.

use crate::format::StoreError;
use crate::keystore::{segment_kind, KeyStore};
use core::borrow::Borrow;
use zkrownn_curves::{MemoryBudget, MsmAccumulator, Projective, SwCurveConfig};
use zkrownn_ff::Fr;
use zkrownn_groth16::prover::{prove, KeySource, ProofSums, ProverContext, ProverTimings};
use zkrownn_groth16::{KeyConstants, Proof};

/// A proving key in a `.zkst` store, read at a fixed memory budget — the
/// on-disk [`KeySource`]. `S` is an owned [`KeyStore`] (what a prover kit
/// holds) or a borrowed one.
pub struct StoredKey<S = KeyStore> {
    /// The open store.
    pub store: S,
    /// How many bytes of decoded points one streamed chunk may hold.
    pub budget: MemoryBudget,
}

impl<S: Borrow<KeyStore>> StoredKey<S> {
    /// One family MSM, streamed and checksum-verified.
    fn stream_msm<C: SwCurveConfig>(
        &self,
        kind: u32,
        scalars: &[Fr],
    ) -> Result<Projective<C>, StoreError> {
        let store = self.store.borrow();
        let count = store.file().require(kind)?.count;
        if count != scalars.len() as u64 {
            return Err(StoreError::ShapeMismatch {
                kind,
                expected: scalars.len() as u64,
                got: count,
            });
        }
        let mut acc = MsmAccumulator::<C>::new();
        store.stream_family::<C>(kind, self.budget, |at, pts| {
            acc.accumulate(pts, &scalars[at as usize..at as usize + pts.len()]);
        })?;
        Ok(acc.finish())
    }
}

/// The streaming source: segments serially (the budget bounds *total* live
/// point memory, so concurrent families would split — and effectively
/// shrink — it).
impl<S: Borrow<KeyStore>> KeySource for StoredKey<S> {
    type Error = StoreError;

    fn constants(&self) -> Result<KeyConstants, StoreError> {
        self.store.borrow().constants()
    }

    fn proof_sums(&self, z: &[Fr], witness: &[Fr], h: &[Fr]) -> Result<ProofSums, StoreError> {
        Ok(ProofSums {
            a_sum: self.stream_msm(segment_kind::A_QUERY, z)?,
            b_g1_sum: self.stream_msm(segment_kind::B_G1_QUERY, z)?,
            b_g2_sum: self.stream_msm(segment_kind::B_G2_QUERY, z)?,
            lh_sum: self.stream_msm(segment_kind::L_QUERY, witness)?
                + self.stream_msm(segment_kind::H_QUERY, h)?,
        })
    }

    fn assignment_mismatch(expected: usize, got: usize) -> StoreError {
        StoreError::ShapeMismatch {
            kind: segment_kind::A_QUERY,
            expected: expected as u64,
            got: got as u64,
        }
    }
}

/// [`prove`] from a store-backed key at a fixed memory budget, with
/// explicit zero-knowledge randomness `(r, s)`. Byte-identical to
/// [`zkrownn_groth16::create_proof_with_context_and_randomness`] over the
/// equivalent in-memory key.
pub fn create_proof_streamed(
    store: &KeyStore,
    ctx: &ProverContext,
    z: &[Fr],
    r: Fr,
    s: Fr,
    budget: MemoryBudget,
) -> Result<Proof, StoreError> {
    create_proof_streamed_timed(store, ctx, z, r, s, budget).map(|(proof, _)| proof)
}

/// [`create_proof_streamed`] returning the per-phase wall-clock breakdown
/// (the bench harness's store-path source).
pub fn create_proof_streamed_timed(
    store: &KeyStore,
    ctx: &ProverContext,
    z: &[Fr],
    r: Fr,
    s: Fr,
    budget: MemoryBudget,
) -> Result<(Proof, ProverTimings), StoreError> {
    prove(ctx, &StoredKey { store, budget }, z, r, s)
}
