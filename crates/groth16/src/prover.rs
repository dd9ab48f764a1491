//! Groth16 prover.
//!
//! There is **one** proof kernel, [`prove`], over two things it is handed:
//!
//! * a [`ProverContext`] — the lowered circuit: what setup synthesis
//!   produces, and what keygen and every proof read. It holds the matrices,
//!   the FFT domain (with its twiddle tables) and the inverse of the coset
//!   vanishing constant, built once and reused across proofs.
//!   [`create_proof`] still works standalone — it lowers into a throwaway
//!   context — but anything proving more than once against the same
//!   circuit should hold a context (the `zkrownn-core` `ProverKit` does);
//! * a [`KeySource`] — wherever the proving key lives. The kernel owns the
//!   shape check, the witness map, the phase timings and the `(r, s)`
//!   assembly; the source owns only how the five proof MSMs are scheduled.
//!   An in-memory [`ProvingKey`] runs them concurrently
//!   ([`zkrownn_ff::par::join`]); the `zkrownn-store` source streams each
//!   family from disk in budget-sized, checksum-verified chunks.

use crate::keys::{Proof, ProvingKey};
use crate::qap;
use crate::setup::KeyConstants;
use std::time::{Duration, Instant};
use zkrownn_curves::msm::msm;
use zkrownn_curves::{G1Projective, G2Projective};
use zkrownn_ff::{par, Field, Fr};
use zkrownn_poly::Domain;
use zkrownn_r1cs::{Circuit, ProvingSynthesizer, R1csMatrices, SetupSynthesizer, SynthesisError};

/// The lowered circuit: what setup synthesis produces, and what keygen
/// (`generate*`, in [`crate::setup`]) and every proof read — the
/// constraint matrices, the FFT domain with its twiddle tables, and
/// `1/Z_H(g)` (the coset vanishing constant's inverse).
///
/// Rebuilding these per proof — lowering synthesizes the circuit again,
/// the domain pays `O(m)` table multiplications — is pure overhead for
/// batch-proving workloads; a context amortizes it to zero. An authority
/// builds one, generates the key from it, and hands it on to the prover.
pub struct ProverContext {
    matrices: R1csMatrices<Fr>,
    domain: Domain<Fr>,
    z_inv: Fr,
}

impl ProverContext {
    /// Builds a context from lowered matrices.
    ///
    /// # Panics
    /// Panics if the circuit exceeds the field's FFT capacity.
    pub fn new(matrices: R1csMatrices<Fr>) -> Self {
        let domain = qap::qap_domain(&matrices);
        let z_inv = domain
            .vanishing_polynomial_on_coset()
            .inverse()
            .expect("coset avoids the domain");
        Self {
            matrices,
            domain,
            z_inv,
        }
    }

    /// Builds a context by synthesizing `circuit` in (witness-free) setup
    /// mode — the right entry point when only the circuit shape is at hand,
    /// e.g. running setup or reconstructing a prover role from a shipped
    /// proving key.
    pub fn for_circuit<C: Circuit<Fr>>(circuit: &C) -> Result<Self, SynthesisError> {
        let mut cs = SetupSynthesizer::<Fr>::new();
        circuit.synthesize(&mut cs)?;
        Ok(Self::new(cs.into_parts().0))
    }

    /// The lowered constraint matrices.
    pub fn matrices(&self) -> &R1csMatrices<Fr> {
        &self.matrices
    }

    /// The cached evaluation domain (twiddle tables included).
    pub fn domain(&self) -> &Domain<Fr> {
        &self.domain
    }

    /// The prover's "witness map": the `m − 1` coefficients of the
    /// quotient `h(x) = (A(x)B(x) − C(x))/Z(x)` for a full assignment
    /// (`deg h = m − 2` for a satisfied system), over the cached domain and
    /// vanishing constant.
    ///
    /// # Panics
    /// Panics unless `z` has one scalar per variable of the circuit.
    pub fn witness_map(&self, z: &[Fr]) -> Vec<Fr> {
        qap::witness_map_with(&self.matrices, &self.domain, self.z_inv, z)
    }
}

/// Wall-clock breakdown of one proof (for benches and telemetry).
#[derive(Clone, Copy, Debug, Default)]
pub struct ProverTimings {
    /// The FFT-heavy quotient computation (`witness_map`).
    pub witness_map: Duration,
    /// The five multi-scalar multiplications.
    pub msm: Duration,
    /// End-to-end proof time (including assembly of `A`, `B`, `C`).
    pub total: Duration,
}

/// Where [`prove`] reads the proving key from — the read half of the pair
/// whose write half is [`KeySink`](crate::KeySink): keygen drives a sink to
/// put the key somewhere, and a source proves from wherever that was.
///
/// A source hands over the six fixed key elements and the four MSM partial
/// sums of a proof. *How* it computes the sums — monolithic concurrent MSMs
/// over in-memory queries, or serial chunk-accumulated streams out of a
/// key store — is the one thing it owns: MSM partial sums add up
/// group-exactly, so every source hands [`prove`] the same group elements
/// and the proof bytes do not depend on where the key lives.
///
/// [`ProvingKey`] is the in-memory source; `zkrownn_store::StoredKey` (a
/// `KeyStore` plus a `MemoryBudget`) is the on-disk one, and that crate's
/// front-page example proves from both through the same [`prove`] call.
pub trait KeySource {
    /// The source's failure type: uninhabited for an in-memory key, a
    /// store error for an on-disk one.
    type Error;

    /// The six fixed key elements.
    fn constants(&self) -> Result<KeyConstants, Self::Error>;

    /// The four MSM partial sums of a proof: `a_query`, `b_g1_query` and
    /// `b_g2_query` against the full assignment `z`, `l_query` against its
    /// `witness` tail plus `h_query` against the quotient coefficients `h`.
    ///
    /// A source checks each family's length against its scalars, and must
    /// have verified whatever integrity it maintains over the points it
    /// consumed before returning `Ok` — the sums go straight into the
    /// proof.
    fn proof_sums(&self, z: &[Fr], witness: &[Fr], h: &[Fr]) -> Result<ProofSums, Self::Error>;

    /// The error [`prove`] returns for an assignment of `got` scalars
    /// against a circuit of `expected` variables. A source whose
    /// [`Error`](Self::Error) is uninhabited panics instead: for a key
    /// that cannot fail, a wrong-length assignment is a caller bug.
    fn assignment_mismatch(expected: usize, got: usize) -> Self::Error;
}

/// The in-memory source: five monolithic MSMs, run concurrently (each is
/// itself window-parallel).
impl KeySource for ProvingKey {
    type Error = core::convert::Infallible;

    fn constants(&self) -> Result<KeyConstants, Self::Error> {
        Ok(KeyConstants {
            alpha_g1: self.vk.alpha_g1,
            beta_g1: self.beta_g1,
            delta_g1: self.delta_g1,
            beta_g2: self.vk.beta_g2,
            gamma_g2: self.vk.gamma_g2,
            delta_g2: self.vk.delta_g2,
        })
    }

    fn proof_sums(&self, z: &[Fr], witness: &[Fr], h: &[Fr]) -> Result<ProofSums, Self::Error> {
        // every family against its scalars before any MSM: a short or long
        // family would otherwise panic inside `msm` on a scoped thread
        let shapes = [
            ("a_query", self.a_query.len(), z.len()),
            ("b_g1_query", self.b_g1_query.len(), z.len()),
            ("b_g2_query", self.b_g2_query.len(), z.len()),
            ("l_query", self.l_query.len(), witness.len()),
            ("h_query", self.h_query.len(), h.len()),
        ];
        for (family, points, scalars) in shapes {
            assert_eq!(
                points, scalars,
                "proving key shape mismatch: {family} has {points} points for {scalars} scalars"
            );
        }
        let ((lh_sum, a_sum), (b_g2_sum, b_g1_sum)) = par::join(
            || {
                par::join(
                    || msm(&self.l_query, witness) + msm(&self.h_query, h),
                    || msm(&self.a_query, z),
                )
            },
            || par::join(|| msm(&self.b_g2_query, z), || msm(&self.b_g1_query, z)),
        );
        Ok(ProofSums {
            a_sum,
            b_g1_sum,
            b_g2_sum,
            lh_sum,
        })
    }

    fn assignment_mismatch(expected: usize, got: usize) -> Self::Error {
        panic!("assignment length mismatch: expected {expected} scalars, got {got}")
    }
}

/// The proof kernel: shape check, witness map, the source's five MSMs,
/// then the `(r, s)`-randomized assembly of `(A, B, C)` — with the
/// per-phase wall-clock breakdown alongside the proof.
///
/// `z` is the full assignment (instance ‖ witness) of a satisfied synthesis
/// of `ctx`'s circuit, and `source` a key generated for that circuit. Every
/// other `create_proof*` entry point, here and in `zkrownn-store`, is a
/// line or two over this function.
pub fn prove<S: KeySource>(
    ctx: &ProverContext,
    source: &S,
    z: &[Fr],
    r: Fr,
    s: Fr,
) -> Result<(Proof, ProverTimings), S::Error> {
    let start = Instant::now();
    let num_instance = ctx.matrices.num_instance();
    let num_vars = ctx.matrices.num_variables();
    if z.len() != num_vars {
        return Err(S::assignment_mismatch(num_vars, z.len()));
    }

    // h(x) coefficients (the FFT-heavy part) — scalars stay in memory
    // whatever the source: 32 B/element against a key's 64–128 B/point
    let h = ctx.witness_map(z);
    let witness_map = start.elapsed();

    let msm_start = Instant::now();
    let sums = source.proof_sums(z, &z[num_instance..], &h)?;
    let msm = msm_start.elapsed();

    let proof = assemble_proof(&source.constants()?, &sums, r, s);
    let timings = ProverTimings {
        witness_map,
        msm,
        total: start.elapsed(),
    };
    Ok((proof, timings))
}

/// Synthesizes `circuit` in proving mode (evaluating every value closure
/// into the dense assignment) and creates a proof for it, over a
/// throwaway [`ProverContext`] — callers proving repeatedly against one
/// circuit should build the context once and call [`prove`].
///
/// Fresh zero-knowledge randomness `(r, s)` is drawn from `rng`. Returns
/// [`SynthesisError::AssignmentMissing`] if the circuit was constructed
/// without its witness, and [`SynthesisError::Unsatisfied`] (no proof) if
/// the witness violates a constraint.
///
/// # Panics
/// Panics if the circuit's shape disagrees with the proving key.
pub fn create_proof<C: Circuit<Fr>, R: rand::Rng + ?Sized>(
    pk: &ProvingKey,
    circuit: &C,
    rng: &mut R,
) -> Result<Proof, SynthesisError> {
    let mut cs = ProvingSynthesizer::<Fr>::new();
    circuit.synthesize(&mut cs)?;
    cs.is_satisfied().map_err(SynthesisError::Unsatisfied)?;
    let ctx = ProverContext::for_circuit(circuit)?;
    let (r, s) = (Fr::random(rng), Fr::random(rng));
    Ok(create_proof_timed(pk, &ctx, &cs.full_assignment(), r, s).0)
}

/// Deterministic-randomness proof from an in-memory key over a cached
/// context: [`prove`] without the timings.
///
/// # Panics
/// Panics if `z` or `pk` disagrees with the context's circuit shape.
pub fn create_proof_with_context_and_randomness(
    pk: &ProvingKey,
    ctx: &ProverContext,
    z: &[Fr],
    r: Fr,
    s: Fr,
) -> Proof {
    create_proof_timed(pk, ctx, z, r, s).0
}

/// [`prove`] from an in-memory key, returning the per-phase wall-clock
/// breakdown alongside the proof (the bench harness's `BENCH_prover.json`
/// source).
///
/// # Panics
/// Panics if `z` or `pk` disagrees with the context's circuit shape.
pub fn create_proof_timed(
    pk: &ProvingKey,
    ctx: &ProverContext,
    z: &[Fr],
    r: Fr,
    s: Fr,
) -> (Proof, ProverTimings) {
    let Ok(proved) = prove(ctx, pk, z, r, s);
    proved
}

/// The four MSM partial sums a proof is assembled from.
///
/// `Σ zᵢ·uᵢ(τ)` (G1), `Σ zᵢ·vᵢ(τ)` in G1 and G2, and the combined
/// `L + H` sum — what a [`KeySource`] produces and [`assemble_proof`]
/// consumes.
#[derive(Clone, Copy, Debug)]
pub struct ProofSums {
    /// `Σ zᵢ·uᵢ(τ)` over the full assignment (A-query MSM).
    pub a_sum: G1Projective,
    /// `Σ zᵢ·vᵢ(τ)` in G1 (B-G1-query MSM).
    pub b_g1_sum: G1Projective,
    /// `Σ zᵢ·vᵢ(τ)` in G2 (B-G2-query MSM).
    pub b_g2_sum: G2Projective,
    /// `Σ_w zᵢ·lᵢ + Σ hᵢ·(τⁱZ(τ)/δ)` (L-query + H-query MSMs).
    pub lh_sum: G1Projective,
}

/// The `(r, s)`-randomized assembly of `(A, B, C)` from the MSM partial
/// sums and the key's fixed elements — the final step of [`prove`].
pub fn assemble_proof(constants: &KeyConstants, sums: &ProofSums, r: Fr, s: Fr) -> Proof {
    // A = α + Σ zᵢ·uᵢ(τ) + r·δ
    let delta_g1 = constants.delta_g1.into_projective();
    let a = constants.alpha_g1.into_projective() + sums.a_sum + delta_g1.mul_scalar(r);

    // B = β + Σ zᵢ·vᵢ(τ) + s·δ  (in G2, and again in G1 for C)
    let b_g2 = constants.beta_g2.into_projective()
        + sums.b_g2_sum
        + constants.delta_g2.into_projective().mul_scalar(s);
    let b_g1 = constants.beta_g1.into_projective() + sums.b_g1_sum + delta_g1.mul_scalar(s);

    // C = Σ_w zᵢ·lᵢ + Σ hᵢ·(τⁱZ(τ)/δ) + s·A + r·B₁ − rs·δ
    let c = sums.lh_sum + a.mul_scalar(s) + b_g1.mul_scalar(r) - delta_g1.mul_scalar(r * s);

    Proof {
        a: a.into_affine(),
        b: b_g2.into_affine(),
        c: c.into_affine(),
    }
}
