//! # zkrownn-store — the segmented on-disk key store
//!
//! ZKROWNN's pipeline materializes every proving key in RAM; at CNN scale
//! a key is tens of megabytes and at paper-scale conv stacks it is
//! multi-GB — far past what the setup and prover should be required to
//! hold. This crate makes key size and peak memory independent:
//!
//! * [`mod@format`] — the `.zkst` container: a `ZKRW` envelope extended with a
//!   **segment table** (per-segment kind/count/offset/length/checksum), a
//!   streaming [`StoreWriter`] and a lazily-reading [`StoreFile`] with
//!   mmap and buffered-`pread` backends ([`StoreBackend`]);
//! * [`keystore`] — the proving-key layout over that container: one
//!   segment per [`zkrownn_groth16::KeyFamily`], a constants segment, and
//!   an optional circuit-binding metadata segment. [`KeyStoreWriter`] is
//!   the [`zkrownn_groth16::KeySink`] that turns
//!   `SetupContext::generate_into` into memory-budgeted on-disk keygen;
//!   [`KeyStore`] reads families back segment-at-a-time;
//! * [`prover`] — [`StoredKey`], the [`zkrownn_groth16::KeySource`] over a
//!   store: windowed Pippenger consuming base chunks straight from disk at
//!   a fixed [`zkrownn_curves::MemoryBudget`], feeding the same
//!   [`zkrownn_groth16::prove`] kernel an in-memory key feeds;
//! * [`sha`] — the workspace's SHA-256 (re-exported by the core crate),
//!   which backs every segment checksum;
//! * [`mod@atomic`] — the write-to-temp / `sync_all` / rename /
//!   fsync-parent commit discipline behind every writer here: a crash
//!   (even `kill -9`) mid-setup leaves at worst a stale `*.zkst.tmp`,
//!   never a torn store at the final name.
//!
//! Sink and source are the only store-specific code on either path — keygen
//! and proving each have one kernel — and both are *pinned* byte-identical
//! to their in-memory counterparts: chunked fixed-base multiplication
//! produces the same canonical affine points, and MSM partial sums add up
//! group-exactly.
//! Integrity is end-to-end — every byte of a store file is covered either
//! by the header/table footer digest or by a segment checksum, and the
//! streaming prover refuses to assemble a proof from a segment whose
//! digest does not match.
//!
//! One keygen kernel into two sinks, one proof kernel from two sources:
//!
//! ```
//! use rand::SeedableRng;
//! use zkrownn_curves::MemoryBudget;
//! use zkrownn_ff::{Field, Fr};
//! use zkrownn_groth16::{prove, verify_proof, SetupContext, ToxicWaste};
//! use zkrownn_r1cs::{assignment, Circuit, ConstraintSystem, ProvingSynthesizer, SynthesisError};
//! use zkrownn_store::{KeyStore, KeyStoreWriter, StoredKey};
//!
//! struct Square { x: Option<u64> }
//! impl Circuit<Fr> for Square {
//!     type Output = ();
//!     fn synthesize<CS: ConstraintSystem<Fr>>(&self, cs: &mut CS) -> Result<(), SynthesisError> {
//!         let xv = self.x;
//!         let y = cs.alloc_instance(|| assignment(xv.map(|x| Fr::from_u64(x * x))))?;
//!         let x = cs.alloc_witness(|| assignment(xv.map(Fr::from_u64)))?;
//!         cs.enforce(x.into(), x.into(), y.into());
//!         Ok(())
//!     }
//! }
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let dir = std::env::temp_dir().join(format!("zkst-doc-{}", std::process::id()));
//! std::fs::create_dir_all(&dir)?;
//! let path = dir.join("square.zkst");
//!
//! // keygen: the same toxic waste into memory and, each fixed-base chunk
//! // going to disk as it finishes, into a store
//! let mut rng = rand::rngs::StdRng::seed_from_u64(7);
//! let toxic = ToxicWaste::sample(&mut rng);
//! let budget = MemoryBudget::from_mb(64);
//! let setup = SetupContext::for_circuit(&Square { x: None })?;
//! let (pk, _) = setup.generate_timed(&toxic);
//! let mut sink = KeyStoreWriter::create(&path, None)?;
//! setup.generate_into(&toxic, &mut sink, budget)?;
//! sink.finish()?;
//! let stored = StoredKey { store: KeyStore::open(&path)?, budget };
//!
//! let mut cs = ProvingSynthesizer::<Fr>::new();
//! Square { x: Some(3) }.synthesize(&mut cs)?;
//! let (ctx, z) = (setup.into_prover_context(), cs.full_assignment());
//! let (r, s) = (Fr::random(&mut rng), Fr::random(&mut rng));
//!
//! // prove: monolithic MSMs over the in-memory key, Pippenger over base
//! // chunks streamed from the store — the same proof
//! let Ok((from_memory, _)) = prove(&ctx, &pk, &z, r, s);
//! let (from_store, _) = prove(&ctx, &stored, &z, r, s)?;
//! assert_eq!(from_memory, from_store);
//! verify_proof(&stored.store.verifying_key()?, &from_store, &[Fr::from_u64(9)])?;
//! # std::fs::remove_dir_all(&dir)?;
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]
#![cfg_attr(not(feature = "std"), no_std)]

#[cfg(feature = "std")]
pub mod atomic;
#[cfg(feature = "std")]
pub mod format;
#[cfg(feature = "std")]
pub mod keystore;
#[cfg(feature = "std")]
pub mod map;
#[cfg(feature = "std")]
pub mod prover;
pub mod sha;

#[cfg(feature = "std")]
pub use atomic::{fsync_parent_dir, temp_path, write_file_atomic};
#[cfg(feature = "std")]
pub use format::{SegmentEntry, StoreError, StoreFile, StoreMedium, StoreWriter};

/// The envelope kind tag of a store file (`ArtifactKind::KeyStore`).
pub const STORE_KIND: u8 = 9;
/// Store format version this crate writes and understands.
pub const STORE_VERSION: u16 = 1;
#[cfg(feature = "std")]
pub use keystore::{
    family_kind, segment_kind, write_proving_key, KeyStore, KeyStoreWriter, StoreMeta,
};
#[cfg(feature = "std")]
pub use map::ReadAt;
#[cfg(feature = "std")]
pub use map::StoreBackend;
#[cfg(feature = "std")]
pub use prover::{create_proof_streamed, create_proof_streamed_timed, StoredKey};
pub use sha::{sha256, Sha256};
