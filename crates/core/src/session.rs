//! Role-typed sessions encoding the paper's trust model at compile time.
//!
//! ZKROWNN has three parties with strictly different knowledge:
//!
//! * the **authority** runs the one-time trusted setup for a circuit shape
//!   and hands each side its kit — [`Authority::setup`];
//! * the **prover** (model owner) holds the private watermark witness and
//!   the proving key — [`ProverKit::prove`] turns them into a portable
//!   [`SignedClaim`];
//! * the **verifier** holds only public data (the verifying key and the
//!   circuit id) — [`VerifierKit::verify`] checks a claim without ever
//!   seeing a trigger key, projection matrix or signature bit.
//!
//! The kits make leaking a secret a *type error*: nothing on
//! [`VerifierKit`] can reach witness data, because the verifier side never
//! holds any. Claims serialize with [`Artifact::to_bytes`](crate::Artifact::to_bytes) and reconstruct
//! in another process with [`Artifact::from_bytes`](crate::Artifact::from_bytes); many claims against
//! the same circuit amortize via [`crate::KeyRegistry::verify_batch`].

use crate::artifact::{CircuitId, OwnershipStatement, TraceHasher};
use crate::circuit::{ExtractionCircuit, ExtractionSpec};
use crate::error::ZkrownnError;
use crate::prove::OwnershipProof;
pub use crate::verify::{SignedClaim, VerifierKit};
use std::path::Path;
use zkrownn_curves::MemoryBudget;
use zkrownn_ff::Field;
use zkrownn_ff::Fr;
use zkrownn_groth16::{
    prove, KeyCollector, KeySink, KeySource, ProverContext, ProvingKey, SetupContext, ToxicWaste,
};
use zkrownn_r1cs::{Circuit, SetupSynthesizer};
use zkrownn_store::{KeyStore, KeyStoreWriter, StoreBackend, StoreMeta, StoredKey};

/// The one place a circuit becomes `(id, lowered form)`: a single
/// witness-free synthesis whose streamed trace is the [`CircuitId`] and
/// whose matrices move, with their twiddle-table domain, into a
/// [`SetupContext`] — which drives key generation and converts into the
/// prover's cached [`ProverContext`].
fn lower<C: Circuit<Fr>>(circuit: &C) -> (CircuitId, SetupContext) {
    let mut cs = SetupSynthesizer::with_sink(TraceHasher::new());
    circuit
        .synthesize(&mut cs)
        .expect("setup-mode synthesis evaluates no value closure and cannot fail");
    let (matrices, trace) = cs.into_parts();
    (
        CircuitId::from_bytes(trace.finalize()),
        SetupContext::new(matrices),
    )
}

/// The one setup path: [`lower`] → keygen into the sink `make_sink` builds
/// for that circuit id. The [`SetupContext`] is returned so
/// [`Authority::setup`] can hand it on to the prover (one synthesis, one
/// domain build, both roles).
fn keygen_into<C: Circuit<Fr>, S: KeySink, R: rand::Rng + ?Sized>(
    circuit: &C,
    make_sink: impl FnOnce(CircuitId) -> Result<S, S::Error>,
    budget: MemoryBudget,
    rng: &mut R,
) -> Result<(S, CircuitId, SetupContext), S::Error> {
    let (id, setup_ctx) = lower(circuit);
    let mut sink = make_sink(id)?;
    setup_ctx.generate_into(&ToxicWaste::sample(rng), &mut sink, budget)?;
    Ok((sink, id, setup_ctx))
}

/// [`keygen_into`] a [`KeyCollector`] at the unbounded budget — the key in
/// memory — plus the [`VerifierKit`] for it, bound to `statement_digest`:
/// the setup was requested for *this* dispute, so a claim about any other
/// same-shaped model will be rejected with `StatementMismatch`.
fn keygen_in_memory<C: Circuit<Fr>, R: rand::Rng + ?Sized>(
    circuit: &C,
    statement_digest: [u8; 32],
    rng: &mut R,
) -> (ProvingKey, VerifierKit, SetupContext) {
    let unbounded = MemoryBudget::from_bytes(usize::MAX);
    let Ok((sink, id, setup_ctx)) =
        keygen_into(circuit, |_| Ok(KeyCollector::default()), unbounded, rng);
    let pk = sink.into_key();
    let verifier = VerifierKit::from_parts(pk.vk.clone(), id).bind_statement(statement_digest);
    (pk, verifier, setup_ctx)
}

/// The trusted-setup authority (the paper's trusted third party `T`).
///
/// Runs circuit-specific setup once per circuit *shape* and splits the
/// result into the two role kits. Setup synthesizes the circuit with the
/// witness-free setup driver — no value closure is ever evaluated, so the
/// authority learns nothing about the watermark (and, via
/// [`Authority::setup_statement`], need not even be handed a spec that
/// *contains* a witness).
///
/// ```
/// use rand::SeedableRng;
/// use zkrownn::{Authority, ExtractionSpec, QuantLayer, QuantizedModel};
/// use zkrownn_gadgets::FixedConfig;
///
/// let cfg = FixedConfig::default();
/// let spec = ExtractionSpec {
///     model: QuantizedModel {
///         layers: vec![
///             QuantLayer::Dense { in_dim: 2, out_dim: 2, w: vec![cfg.encode(0.5); 4], b: vec![0; 2] },
///             QuantLayer::ReLU,
///         ],
///         input_len: 2,
///         cfg,
///     },
///     triggers: vec![vec![cfg.encode(1.0); 2]],
///     projection: vec![cfg.encode(0.25); 4],
///     signature: vec![true, false],
///     max_errors: 2,
///     fold_average: false,
///     cfg,
/// };
/// let mut rng = rand::rngs::StdRng::seed_from_u64(1);
/// let (prover, verifier) = Authority::setup(&spec, &mut rng);
/// let claim = prover.prove(&mut rng).unwrap();
/// verifier.verify(&claim).unwrap();
/// ```
pub struct Authority;

impl Authority {
    /// One-time trusted setup for `spec`'s circuit, returning the prover's
    /// and verifier's kits.
    ///
    /// Setup runs on [`ExtractionSpec::shape_circuit`] — the witness-less
    /// view of the spec — so no witness value is touched. The [`ProverKit`]
    /// keeps the full spec (private witness included) and the proving key;
    /// the [`VerifierKit`] gets only the verifying key and the circuit id.
    pub fn setup<R: rand::Rng + ?Sized>(
        spec: &ExtractionSpec,
        rng: &mut R,
    ) -> (ProverKit, VerifierKit) {
        let digest = spec.statement().content_digest();
        let (pk, verifier, setup_ctx) = keygen_in_memory(&spec.shape_circuit(), digest, rng);
        let prover = ProverKit {
            key: pk,
            spec: spec.clone(),
            circuit_id: verifier.circuit_id(),
            // keygen's matrices and twiddle-table domain move straight
            // into the prover's cached compute state
            ctx: setup_ctx.into_prover_context(),
        };
        (prover, verifier)
    }

    /// Strictly witness-free setup from a public [`OwnershipStatement`]
    /// alone — the honest-authority deployment: the authority receives only
    /// public data, publishes the proving key, and issues a bound
    /// [`VerifierKit`]. The owner later assembles their
    /// [`ProverKit::from_parts`] from the published key and their private
    /// spec.
    pub fn setup_statement<R: rand::Rng + ?Sized>(
        statement: &OwnershipStatement,
        rng: &mut R,
    ) -> (ProvingKey, VerifierKit) {
        let circuit = ExtractionCircuit::from_statement(statement);
        // verifier-only issuance: the setup context is not needed past keygen
        let (pk, verifier, _setup_ctx) =
            keygen_in_memory(&circuit, statement.content_digest(), rng);
        (pk, verifier)
    }

    /// [`Authority::setup_statement`], but the proving key is **streamed**
    /// to a segmented store file at `path` instead of materialized in
    /// memory: each fixed-base keygen chunk goes to disk as it finishes,
    /// bounded by `budget`, so the authority's peak memory is independent
    /// of key size. The store is stamped with the circuit id and statement
    /// digest, so a [`StoredProverKit`] can later refuse a mismatched key.
    ///
    /// Byte-for-byte, the stored key is identical to the one
    /// [`Authority::setup_statement`] would produce from the same
    /// randomness. Returns the bound [`VerifierKit`] (read back from the
    /// finished store — what was written is what verifies).
    pub fn setup_statement_stored<R: rand::Rng + ?Sized>(
        statement: &OwnershipStatement,
        path: &Path,
        rng: &mut R,
        budget: MemoryBudget,
    ) -> Result<VerifierKit, ZkrownnError> {
        let circuit = ExtractionCircuit::from_statement(statement);
        let make_sink = |id: CircuitId| {
            let meta = StoreMeta {
                circuit_id: *id.as_bytes(),
                statement_digest: statement.content_digest(),
            };
            KeyStoreWriter::create(path, Some(meta))
        };
        let circuit_id = keygen_into(&circuit, make_sink, budget, rng)
            .and_then(|(sink, id, _setup_ctx)| sink.finish().map(|()| id))
            .map_err(|e| ZkrownnError::Store(e.to_string()))?;
        let vk = KeyStore::open(path)?.verifying_key()?;
        Ok(VerifierKit::from_parts(vk, circuit_id).bind_statement(statement.content_digest()))
    }
}

/// The model owner's side: proving key + private watermark witness.
///
/// This is the only type in the workflow that holds secrets (trigger keys,
/// projection matrix, signature). It never serializes them; the only thing
/// it exports is a [`SignedClaim`], which carries public data and a
/// zero-knowledge proof.
///
/// `K` is where the proving key lives — any [`KeySource`]. The default is
/// an in-memory [`ProvingKey`]; [`StoredProverKit`] is the same kit over a
/// key streamed from a `.zkst` store. Either way there is one
/// [`prove`](Self::prove), and the claims do not depend on `K`.
pub struct ProverKit<K = ProvingKey> {
    key: K,
    spec: ExtractionSpec,
    circuit_id: CircuitId,
    /// Cached prover compute state (lowered matrices, FFT domain with its
    /// twiddle tables, vanishing constant) — built once per kit so repeated
    /// [`ProverKit::prove`] calls pay only synthesis + the proof kernel.
    ctx: ProverContext,
}

/// A [`ProverKit`] whose proving key lives on disk in a segmented store
/// (`.zkst`) instead of in memory.
///
/// Proving streams each key family out of the store in budget-sized,
/// checksum-verified chunks, so peak memory is the witness scalars plus one
/// chunk of points — independent of key size. The claims it produces are
/// byte-identical to an in-memory [`ProverKit`]'s with the equivalent key
/// under the same randomness.
pub type StoredProverKit = ProverKit<StoredKey>;

impl<K: KeySource> ProverKit<K>
where
    K::Error: Into<ZkrownnError>,
{
    /// The kit's cached prover compute state.
    pub fn context(&self) -> &ProverContext {
        &self.ctx
    }

    /// The circuit this kit proves against.
    pub fn circuit_id(&self) -> CircuitId {
        self.circuit_id
    }

    /// The public statement this kit's claims will carry.
    pub fn statement(&self) -> OwnershipStatement {
        self.spec.statement()
    }

    /// Generates an ownership claim: synthesizes the witnessed circuit in
    /// proving mode, proves it from wherever the key lives, and bundles the
    /// proof with the public statement.
    pub fn prove<R: rand::Rng + ?Sized>(&self, rng: &mut R) -> Result<SignedClaim, ZkrownnError> {
        let built = self.spec.build()?;
        built
            .cs
            .is_satisfied()
            .map_err(ZkrownnError::UnsatisfiedCircuit)?;
        let z = built.cs.full_assignment();
        let (r, s) = (Fr::random(rng), Fr::random(rng));
        let (proof, _) = prove(&self.ctx, &self.key, &z, r, s).map_err(Into::into)?;
        Ok(SignedClaim {
            statement: self.spec.statement(),
            proof: OwnershipProof {
                proof,
                verdict: built.verdict,
                circuit_id: self.circuit_id,
            },
        })
    }
}

impl ProverKit {
    /// Reassembles a kit from a proving key and a spec — e.g. after
    /// receiving the key bytes from an authority in another process.
    /// Synthesizes the circuit once, for its id and the kit's cached
    /// [`ProverContext`] both.
    pub fn from_parts(pk: ProvingKey, spec: ExtractionSpec) -> Self {
        let (circuit_id, setup_ctx) = lower(&spec.shape_circuit());
        Self {
            key: pk,
            spec,
            circuit_id,
            ctx: setup_ctx.into_prover_context(),
        }
    }

    /// The proving key (needed to persist or ship the prover role).
    pub fn proving_key(&self) -> &ProvingKey {
        &self.key
    }
}

impl StoredProverKit {
    /// Opens a store-backed kit with the default (mmap-preferring) backend.
    ///
    /// Validates the store's structure at open, and — when the store
    /// carries metadata — that the key was generated for `spec`'s circuit;
    /// a key for any other circuit shape fails with
    /// [`ZkrownnError::CircuitMismatch`] here rather than producing an
    /// unverifiable proof later.
    pub fn open(
        path: &Path,
        spec: ExtractionSpec,
        budget: MemoryBudget,
    ) -> Result<Self, ZkrownnError> {
        Self::open_with(path, spec, budget, StoreBackend::Auto)
    }

    /// [`StoredProverKit::open`] with an explicit I/O backend — pass
    /// [`StoreBackend::Buffered`] when running under an address-space cap
    /// (an mmap of the key counts against `ulimit -v`; buffered `pread`
    /// does not).
    pub fn open_with(
        path: &Path,
        spec: ExtractionSpec,
        budget: MemoryBudget,
        backend: StoreBackend,
    ) -> Result<Self, ZkrownnError> {
        let store = KeyStore::open_with(path, backend)?;
        let (circuit_id, setup_ctx) = lower(&spec.shape_circuit());
        if let Some(meta) = store.meta()? {
            if meta.circuit_id != *circuit_id.as_bytes() {
                return Err(ZkrownnError::CircuitMismatch {
                    expected: circuit_id,
                    got: CircuitId::from_bytes(meta.circuit_id),
                });
            }
        }
        Ok(Self {
            key: StoredKey { store, budget },
            spec,
            circuit_id,
            ctx: setup_ctx.into_prover_context(),
        })
    }

    /// The underlying key store (e.g. for [`KeyStore::verifying_key`]).
    pub fn store(&self) -> &KeyStore {
        &self.key.store
    }
}
