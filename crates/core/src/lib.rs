//! # zkrownn — zero-knowledge right of ownership for neural networks
//!
//! End-to-end reproduction of the paper's contribution: a model owner with
//! a DeepSigns-watermarked network proves — in zero knowledge — that a
//! suspect model still carries their watermark, without revealing the
//! trigger keys, the projection matrix or the signature. Any third party
//! verifies the 128-byte proof in milliseconds with only the verifying key.
//!
//! ## The artifact-centric workflow
//!
//! Setup, proving and verification are performed by *different parties*
//! exchanging compact artifacts, so the API is organized around three
//! role types and a wire format:
//!
//! 1. [`Authority::setup`] — a trusted party runs the one-time,
//!    circuit-specific setup (it sees only the public circuit shape) and
//!    hands out a [`ProverKit`] and a [`VerifierKit`];
//! 2. [`ProverKit::prove`] — the owner, who alone holds the private
//!    watermark witness, produces a [`SignedClaim`]: the public
//!    [`OwnershipStatement`] plus an [`OwnershipProof`];
//! 3. [`VerifierKit::verify`] / [`KeyRegistry::verify_batch`] — anyone
//!    checks claims with public data only; kits issued by the authority
//!    are pinned to the disputed model's statement (a sound claim about a
//!    *different* model fails with [`ZkrownnError::StatementMismatch`]),
//!    and a registry caches pairing precomputation per [`CircuitId`] and
//!    amortizes whole batches. Both run the one claim predicate in
//!    [`verify`]: a batch of one is the single-claim check.
//!
//! Every exchanged object implements [`Artifact`] — a versioned,
//! checksummed, self-identifying byte encoding — so kits and claims can be
//! reconstructed in another process with nothing but `from_bytes`. All
//! failures surface as one [`ZkrownnError`], which in particular separates
//! a *forged* proof ([`ZkrownnError::InvalidProof`]) from a *valid proof
//! that the watermark is absent* ([`ZkrownnError::NegativeVerdict`]).
//!
//! ```
//! use rand::SeedableRng;
//! use zkrownn::{Artifact, Authority, ExtractionSpec, KeyRegistry, SignedClaim};
//! use zkrownn::{QuantLayer, QuantizedModel};
//! use zkrownn_gadgets::FixedConfig;
//!
//! # fn main() -> Result<(), zkrownn::ZkrownnError> {
//! // a (tiny) public suspect model and the owner's private witness
//! let cfg = FixedConfig::default();
//! let model = QuantizedModel {
//!     layers: vec![
//!         QuantLayer::Dense {
//!             in_dim: 2,
//!             out_dim: 2,
//!             w: vec![cfg.encode(0.5); 4],
//!             b: vec![0; 2],
//!         },
//!         QuantLayer::ReLU,
//!     ],
//!     input_len: 2,
//!     cfg,
//! };
//! let spec = ExtractionSpec {
//!     model,
//!     triggers: vec![vec![cfg.encode(1.0); 2]],     // private
//!     projection: vec![cfg.encode(0.25); 4],        // private
//!     signature: vec![true, false],                 // private
//!     max_errors: 2,
//!     fold_average: false,
//!     cfg,
//! };
//! let mut rng = rand::rngs::StdRng::seed_from_u64(1);
//!
//! // 1. the authority hands each party its kit
//! let (prover, verifier) = Authority::setup(&spec, &mut rng);
//!
//! // 2. the owner generates a claim and ships it as bytes
//! let claim = prover.prove(&mut rng)?;
//! let wire: Vec<u8> = claim.to_bytes();
//!
//! // 3. any third party reconstructs and verifies — public data only
//! let received = SignedClaim::from_bytes(&wire)?;
//! verifier.verify(&received)?;
//!
//! // services register the key once (through `&self`) and verify in bulk
//! let registry = KeyRegistry::new();
//! registry.register_kit(&verifier);
//! for result in registry.verify_batch(&[received], &mut rng) {
//!     result?;
//! }
//! # Ok(())
//! # }
//! ```
//!
//! ## Mode-aware synthesis
//!
//! The extraction circuit is *one* description — [`ExtractionCircuit`],
//! an implementation of the `Circuit` trait from `zkrownn-r1cs` — driven
//! by three synthesizers: witness-free setup (what [`Authority::setup`]
//! and [`CircuitId`] derivation run; no witness closure is ever
//! evaluated), proving (dense assignment, [`ProverKit::prove`]), and
//! constraint counting/diagnostics. The [`CircuitId`] is the SHA-256 of
//! the setup-mode synthesis trace, so "same shape ⇒ same keys" is a
//! property of the synthesized constraints themselves, not of a
//! side-channel shape description.
//!
//! ## Module map
//!
//! * [`model`] / [`circuit`] — quantize the suspect model and assemble the
//!   watermark-extraction circuit (feed-forward → average → project →
//!   sigmoid → threshold → BER, Algorithm 1 of the paper);
//! * [`artifact`] — the wire format: [`Artifact`] envelopes, [`CircuitId`]
//!   synthesis-trace digests, the [`OwnershipStatement`];
//! * [`session`] — the proving-side role types ([`Authority`],
//!   [`ProverKit`]);
//! * [`verify`] — the verifier's side, `no_std`: [`SignedClaim`],
//!   [`VerifierKit`] and the one claim predicate every entry point runs;
//! * [`registry`] — [`KeyRegistry`]: the concurrent (`&self`) cache of
//!   prepared keys by [`CircuitId`], entering that predicate one circuit
//!   group at a time;
//! * [`prove`] — the [`OwnershipProof`] wire object;
//! * [`mod@reference`] — bit-identical fixed-point extraction outside the
//!   circuit; [`benchmarks`] — the Table II model zoo.

#![deny(missing_docs)]
#![cfg_attr(not(feature = "std"), no_std)]

extern crate alloc;

pub mod artifact;
#[cfg(feature = "std")]
pub mod benchmarks;
pub mod circuit;
pub mod error;
pub mod model;
pub mod prove;
pub mod reference;
#[cfg(feature = "std")]
pub mod registry;
#[cfg(feature = "std")]
pub mod session;
pub mod verify;

pub use artifact::{Artifact, ArtifactKind, CircuitId, OwnershipStatement, WireError};
pub use circuit::{BuiltCircuit, ExtractionCircuit, ExtractionSpec, ExtractionWitness};
pub use error::ZkrownnError;
pub use model::{QuantLayer, QuantizedModel};
pub use prove::OwnershipProof;
#[cfg(feature = "std")]
pub use registry::{KeyRegistry, ShardedKeyRegistry};
#[cfg(feature = "std")]
pub use session::{Authority, ProverKit, StoredProverKit};
pub use verify::{SignedClaim, VerifierKit};
// the store-backed setup/proving knobs, so `zkrownn` alone is enough to
// drive the streaming workflow end to end
pub use zkrownn_curves::MemoryBudget;
#[cfg(feature = "std")]
pub use zkrownn_store::{KeyStore, StoreBackend};
