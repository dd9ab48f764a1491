//! Groth16 trusted setup (circuit-specific CRS generation).
//!
//! In the paper's setting a trusted third party runs this once per circuit;
//! because the watermark-extraction circuit never changes, the cost is
//! amortized over the lifetime of the model (Section II-B of the paper).
//! An authority standing up keys for a *fleet* of circuits pays this path
//! per circuit shape, so it is engineered like the prover's hot path:
//!
//! * a [`SetupContext`] caches the lowered matrices and the twiddle-table
//!   FFT domain, and converts into a [`ProverContext`]
//!   ([`SetupContext::into_prover_context`]) so one lowering feeds both key
//!   generation and the prover's cached compute state;
//! * the QAP polynomials are evaluated at `τ` through the domain's
//!   table-based Lagrange path, and the powers of `τ` for the H-query come
//!   from the same jump-then-recur `geometric_series` that builds twiddle
//!   tables;
//! * every key family is produced by the fixed-base tables' batch-affine
//!   [`FixedBaseTable::mul_many`] kernel, so keygen performs no per-point
//!   `into_affine` inversion outside the six toxic elements `α, β, δ` (G1)
//!   and `β, γ, δ` (G2);
//! * there is **one** keygen kernel ([`SetupContext::generate_into`]): it
//!   walks the key families serially in [`MemoryBudget`]-sized chunks — each
//!   chunk split across cores inside `mul_many` — and hands them to a
//!   [`KeySink`]. Where the key ends up is the sink's business: a
//!   [`KeyCollector`] at the unbounded budget builds the in-memory
//!   [`ProvingKey`], the `zkrownn-store` writer streams a `.zkst` file.
//!
//! The entry points take an `impl Circuit<Fr>` and synthesize it with the
//! shape-only [`SetupSynthesizer`], so the party running setup never
//! evaluates a witness closure — it genuinely needs no witness, not even a
//! placeholder one.

use crate::keys::{ProvingKey, VerifyingKey};
use crate::prover::ProverContext;
use crate::qap;
use std::time::{Duration, Instant};
use zkrownn_curves::serialize::uncompressed_size;
use zkrownn_curves::{
    FixedBaseTable, G1Affine, G1Config, G1Projective, G2Affine, G2Config, G2Projective,
    MemoryBudget,
};
use zkrownn_ff::{Field, Fr};
use zkrownn_poly::{geometric_series, Radix2Domain};
use zkrownn_r1cs::{Circuit, R1csMatrices, SetupSynthesizer, SynthesisError};

/// The secret randomness ("toxic waste") behind a CRS. Exposed as a struct
/// so tests can run deterministic setups; real deployments sample it and
/// drop it immediately.
#[derive(Clone, Debug)]
pub struct ToxicWaste {
    /// α
    pub alpha: Fr,
    /// β
    pub beta: Fr,
    /// γ
    pub gamma: Fr,
    /// δ
    pub delta: Fr,
    /// τ — the evaluation point
    pub tau: Fr,
}

impl ToxicWaste {
    /// Samples fresh setup randomness.
    pub fn sample<R: rand::Rng + ?Sized>(rng: &mut R) -> Self {
        // all values must be non-zero for the CRS to be well-formed
        let nonzero = |rng: &mut R| loop {
            let v = Fr::random(rng);
            if !v.is_zero() {
                return v;
            }
        };
        Self {
            alpha: nonzero(rng),
            beta: nonzero(rng),
            gamma: nonzero(rng),
            delta: nonzero(rng),
            tau: nonzero(rng),
        }
    }
}

/// Wall-clock breakdown of one key generation (for benches and telemetry).
#[derive(Clone, Copy, Debug, Default)]
pub struct SetupTimings {
    /// Scalar side: Lagrange/QAP evaluation at `τ` plus the derived scalar
    /// vectors (`β·u + α·v + w` combinations, powers of `τ`).
    pub qap_eval: Duration,
    /// Group side: fixed-base table construction plus the batch-affine
    /// multiplications for every key family.
    pub commit: Duration,
    /// End-to-end key generation.
    pub total: Duration,
}

/// One of the six point-vector families making up a [`ProvingKey`].
///
/// Key generation emits families one at a time in the order of the
/// variants below; sinks use the discriminant to tag their output
/// (the `zkrownn-store` segment table reuses these names).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum KeyFamily {
    /// `gamma_abc_g1` — the instance (IC) columns, part of the verifying
    /// key.
    Ic,
    /// `a_query` — `uᵢ(τ)` in G1.
    AQuery,
    /// `b_g1_query` — `vᵢ(τ)` in G1.
    BG1Query,
    /// `b_g2_query` — `vᵢ(τ)` in G2 (the only G2 family).
    BG2Query,
    /// `h_query` — `τⁱ·Z(τ)/δ` in G1.
    HQuery,
    /// `l_query` — the witness columns over `δ⁻¹` in G1.
    LQuery,
}

impl KeyFamily {
    /// Every family, in the order keygen emits them.
    pub const ALL: [KeyFamily; 6] = [
        KeyFamily::Ic,
        KeyFamily::AQuery,
        KeyFamily::BG1Query,
        KeyFamily::BG2Query,
        KeyFamily::HQuery,
        KeyFamily::LQuery,
    ];

    /// Human-readable family name (for diagnostics and store tooling).
    pub fn name(self) -> &'static str {
        match self {
            Self::Ic => "ic",
            Self::AQuery => "a_query",
            Self::BG1Query => "b_g1_query",
            Self::BG2Query => "b_g2_query",
            Self::HQuery => "h_query",
            Self::LQuery => "l_query",
        }
    }

    /// Whether this family's points live in G2 (only the B-G2 query does).
    pub fn is_g2(self) -> bool {
        matches!(self, Self::BG2Query)
    }
}

/// The six fixed group elements of a proving key — everything that is not
/// one of the [`KeyFamily`] vectors. Emitted once, first, by key
/// generation.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct KeyConstants {
    /// `α` in G1 (verifying key).
    pub alpha_g1: G1Affine,
    /// `β` in G1 (prover side).
    pub beta_g1: G1Affine,
    /// `δ` in G1 (prover side).
    pub delta_g1: G1Affine,
    /// `β` in G2 (verifying key).
    pub beta_g2: G2Affine,
    /// `γ` in G2 (verifying key).
    pub gamma_g2: G2Affine,
    /// `δ` in G2 (verifying key).
    pub delta_g2: G2Affine,
}

impl KeyConstants {
    /// The verifying key these constants form with the instance (IC)
    /// family.
    pub fn verifying_key(&self, gamma_abc_g1: Vec<G1Affine>) -> VerifyingKey {
        VerifyingKey {
            alpha_g1: self.alpha_g1,
            beta_g2: self.beta_g2,
            gamma_g2: self.gamma_g2,
            delta_g2: self.delta_g2,
            gamma_abc_g1,
        }
    }
}

/// Where key generation puts the key ([`SetupContext::generate_into`]) —
/// the write half of the pair whose read half is
/// [`KeySource`](crate::KeySource): a sink builds a key somewhere (memory,
/// a `.zkst` file), a source proves from wherever it was built.
///
/// The generator drives a sink through a fixed protocol: one
/// [`constants`](Self::constants) call, then for each family in
/// [`KeyFamily::ALL`] order a [`begin_family`](Self::begin_family) call
/// announcing the exact element count, zero or more budget-sized point
/// chunks ([`g1_chunk`](Self::g1_chunk) or [`g2_chunk`](Self::g2_chunk),
/// matching [`KeyFamily::is_g2`]), and an [`end_family`](Self::end_family)
/// call. Chunks arrive in index order, and chunking leaves no trace:
/// fixed-base multiplication is per-scalar and affine coordinates are
/// canonical, so a sink that serializes chunks as they arrive writes the
/// same bytes at every [`MemoryBudget`].
pub trait KeySink {
    /// The sink's failure type (e.g. an I/O error for on-disk sinks).
    type Error;

    /// Receives the six fixed key elements (called exactly once, first).
    fn constants(&mut self, constants: &KeyConstants) -> Result<(), Self::Error>;

    /// Announces the next family and its total element count.
    fn begin_family(&mut self, family: KeyFamily, len: usize) -> Result<(), Self::Error>;

    /// Receives the next chunk of a G1 family, in index order.
    fn g1_chunk(&mut self, points: &[G1Affine]) -> Result<(), Self::Error>;

    /// Receives the next chunk of the G2 family, in index order.
    fn g2_chunk(&mut self, points: &[G2Affine]) -> Result<(), Self::Error>;

    /// Marks the announced family complete.
    fn end_family(&mut self, family: KeyFamily) -> Result<(), Self::Error>;
}

/// The in-memory [`KeySink`]: collects every chunk into the vectors of a
/// [`ProvingKey`]. Driven at `MemoryBudget::from_bytes(usize::MAX)` each
/// family arrives as a single chunk, which is all that "in memory" means
/// to the keygen kernel.
#[derive(Default)]
pub struct KeyCollector {
    constants: Option<KeyConstants>,
    /// The five G1 families, in [`KeyFamily::ALL`] order.
    g1: Vec<Vec<G1Affine>>,
    b_g2_query: Vec<G2Affine>,
}

impl KeyCollector {
    /// The collected key.
    ///
    /// # Panics
    /// Panics unless the sink was driven through one complete key
    /// generation.
    pub fn into_key(self) -> ProvingKey {
        let constants = self.constants.expect("keygen emits the constants first");
        let [gamma_abc_g1, a_query, b_g1_query, h_query, l_query]: [Vec<G1Affine>; 5] =
            self.g1.try_into().expect("keygen emits five G1 families");
        ProvingKey {
            vk: constants.verifying_key(gamma_abc_g1),
            beta_g1: constants.beta_g1,
            delta_g1: constants.delta_g1,
            a_query,
            b_g1_query,
            b_g2_query: self.b_g2_query,
            h_query,
            l_query,
        }
    }
}

impl KeySink for KeyCollector {
    type Error = core::convert::Infallible;

    fn constants(&mut self, constants: &KeyConstants) -> Result<(), Self::Error> {
        self.constants = Some(*constants);
        Ok(())
    }

    fn begin_family(&mut self, family: KeyFamily, len: usize) -> Result<(), Self::Error> {
        if family.is_g2() {
            self.b_g2_query.reserve_exact(len);
        } else {
            self.g1.push(Vec::with_capacity(len));
        }
        Ok(())
    }

    fn g1_chunk(&mut self, points: &[G1Affine]) -> Result<(), Self::Error> {
        let family = self.g1.last_mut().expect("begin_family precedes chunks");
        family.extend_from_slice(points);
        Ok(())
    }

    fn g2_chunk(&mut self, points: &[G2Affine]) -> Result<(), Self::Error> {
        self.b_g2_query.extend_from_slice(points);
        Ok(())
    }

    fn end_family(&mut self, _family: KeyFamily) -> Result<(), Self::Error> {
        Ok(())
    }
}

/// Everything about a circuit the setup can compute once and reuse: the
/// lowered constraint matrices and the FFT domain with its twiddle tables.
///
/// One context serves key generation (any number of times — e.g. key
/// rotation for the same circuit shape) and then converts into the
/// prover's cached [`ProverContext`] without re-lowering the circuit or
/// rebuilding the domain tables ([`Self::into_prover_context`] — the
/// `zkrownn` `Authority::setup` uses exactly this handoff).
pub struct SetupContext {
    matrices: R1csMatrices<Fr>,
    domain: Radix2Domain<Fr>,
}

impl SetupContext {
    /// Builds a context from pre-lowered matrices.
    ///
    /// # Panics
    /// Panics if the circuit exceeds the field's 2-adic FFT capacity.
    pub fn new(matrices: R1csMatrices<Fr>) -> Self {
        let domain = qap::qap_domain(&matrices);
        Self { matrices, domain }
    }

    /// Builds a context by synthesizing `circuit` in (witness-free) setup
    /// mode.
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
    pub fn domain(&self) -> &Radix2Domain<Fr> {
        &self.domain
    }

    /// Runs key generation with fresh randomness from `rng`.
    pub fn generate<R: rand::Rng + ?Sized>(&self, rng: &mut R) -> ProvingKey {
        self.generate_timed(&ToxicWaste::sample(rng)).0
    }

    /// Deterministic key generation from explicit toxic waste, returning
    /// the in-memory key with the per-phase wall-clock breakdown (the bench
    /// harness's `setup_qap_s`/`setup_commit_s` source): the kernel driven
    /// into a [`KeyCollector`] at the unbounded budget.
    pub fn generate_timed(&self, toxic: &ToxicWaste) -> (ProvingKey, SetupTimings) {
        let mut sink = KeyCollector::default();
        let unbounded = MemoryBudget::from_bytes(usize::MAX);
        let Ok(timings) = self.generate_into(toxic, &mut sink, unbounded);
        (sink.into_key(), timings)
    }

    /// The keygen kernel, into `sink`: QAP scalars at `τ`, then every key
    /// family through the batch-affine fixed-base tables, driving the sink
    /// through the protocol described on [`KeySink`]. At most one
    /// `budget`-sized point chunk (plus the fixed-base tables and the
    /// 32 B/element scalar vectors) is live at any time beyond what the
    /// sink itself keeps.
    ///
    /// Families are processed **serially** — the budget bounds the live
    /// point memory, which concurrent families would split — but each chunk
    /// runs through the multi-core [`FixedBaseTable::mul_many`] kernel, and
    /// the points are the same at every budget.
    pub fn generate_into<S: KeySink>(
        &self,
        toxic: &ToxicWaste,
        sink: &mut S,
        budget: MemoryBudget,
    ) -> Result<SetupTimings, S::Error> {
        // Scalar side: QAP evaluations at `τ` plus every derived scalar
        // vector (the toxic elements go out separately, as the constants)
        let start = Instant::now();
        let qap = qap::evaluate_qap_at_with(&self.matrices, &self.domain, toxic.tau);
        let num_instance = self.matrices.num_instance();
        let num_vars = self.matrices.num_variables();
        debug_assert_eq!(qap.u.len(), num_vars);
        let gamma_inv = toxic.gamma.inverse().expect("gamma != 0");
        let delta_inv = toxic.delta.inverse().expect("delta != 0");
        // `gamma_abc_g1` scalars — instance columns of `(β·u + α·v + w)·γ⁻¹`
        // — and `l_query` scalars — witness columns of the same over `δ`
        let mut ic_scalars = Vec::with_capacity(num_instance);
        let mut l_scalars = Vec::with_capacity(self.matrices.num_witness());
        for i in 0..num_vars {
            let combined = toxic.beta * qap.u[i] + toxic.alpha * qap.v[i] + qap.w[i];
            if i < num_instance {
                ic_scalars.push(combined * gamma_inv);
            } else {
                l_scalars.push(combined * delta_inv);
            }
        }
        // `h_query` scalars: τ^i · Z(τ)/δ — jump-then-recur, chunk-parallel
        let h_scalars = geometric_series(qap.zt * delta_inv, toxic.tau, self.domain.size - 1);
        let qap_eval = start.elapsed();

        // Group side: batch-affine fixed-base kernels, their windows sized
        // for the whole key, not the chunk — per-point cost is then the
        // same at every budget
        let commit_start = Instant::now();
        let total_g1_muls = 3 * num_vars + h_scalars.len() + 3;
        let w1 = FixedBaseTable::<G1Config>::suggested_window(total_g1_muls);
        let w2 = FixedBaseTable::<G2Config>::suggested_window(num_vars + 3);
        let mut t2_slot = None;
        let t1 = std::thread::scope(|scope| {
            scope.spawn(|| t2_slot = Some(FixedBaseTable::new(G2Projective::generator(), w2)));
            FixedBaseTable::new(G1Projective::generator(), w1)
        });
        let t2 = t2_slot.expect("scope joined the G2 table build");

        // the fixed elements first — single-scalar muls normalize to the same
        // canonical affine coordinates the batch kernel produces
        sink.constants(&KeyConstants {
            alpha_g1: t1.mul(toxic.alpha).into_affine(),
            beta_g1: t1.mul(toxic.beta).into_affine(),
            delta_g1: t1.mul(toxic.delta).into_affine(),
            beta_g2: t2.mul(toxic.beta).into_affine(),
            gamma_g2: t2.mul(toxic.gamma).into_affine(),
            delta_g2: t2.mul(toxic.delta).into_affine(),
        })?;

        let g1_chunk = budget.chunk_len(uncompressed_size::<G1Config>());
        let g2_chunk = budget.chunk_len(uncompressed_size::<G2Config>());
        for family in KeyFamily::ALL {
            let family_scalars: &[Fr] = match family {
                KeyFamily::Ic => &ic_scalars,
                KeyFamily::AQuery => &qap.u,
                KeyFamily::BG1Query | KeyFamily::BG2Query => &qap.v,
                KeyFamily::HQuery => &h_scalars,
                KeyFamily::LQuery => &l_scalars,
            };
            sink.begin_family(family, family_scalars.len())?;
            if family.is_g2() {
                for chunk in family_scalars.chunks(g2_chunk) {
                    sink.g2_chunk(&t2.mul_many(chunk))?;
                }
            } else {
                for chunk in family_scalars.chunks(g1_chunk) {
                    sink.g1_chunk(&t1.mul_many(chunk))?;
                }
            }
            sink.end_family(family)?;
        }
        let commit = commit_start.elapsed();
        Ok(SetupTimings {
            qap_eval,
            commit,
            total: start.elapsed(),
        })
    }

    /// Converts this context into the prover's cached compute state,
    /// reusing the lowered matrices and the domain tables (the only new
    /// work is one field inversion for the coset vanishing constant).
    pub fn into_prover_context(self) -> ProverContext {
        ProverContext::from_lowered(self.matrices, self.domain)
    }
}

/// Runs the Groth16 setup for a circuit, producing the proving key (which
/// embeds the verifying key).
///
/// Synthesizes `circuit` in setup mode: no value closure — witness *or*
/// instance — is ever evaluated, so this can run on a machine holding only
/// the circuit shape.
pub fn generate_parameters<C: Circuit<Fr>, R: rand::Rng + ?Sized>(
    circuit: &C,
    rng: &mut R,
) -> Result<ProvingKey, SynthesisError> {
    Ok(SetupContext::for_circuit(circuit)?.generate(rng))
}

/// Low-level setup over pre-lowered matrices (for harnesses that already
/// hold matrices). Builds a throwaway [`SetupContext`] — amortizing callers
/// hold one.
pub fn generate_parameters_from_matrices<R: rand::Rng + ?Sized>(
    matrices: &R1csMatrices<Fr>,
    rng: &mut R,
) -> ProvingKey {
    SetupContext::new(matrices.clone()).generate(rng)
}
