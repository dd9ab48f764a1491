//! # zkrownn-repro — workspace meta-crate
//!
//! Re-exports the full public API of the ZKROWNN reproduction so the
//! workspace-level examples and integration tests can depend on a single
//! crate. See the individual crates for documentation:
//!
//! * [`zkrownn`] — the end-to-end ownership-proof framework (start here:
//!   `Authority::setup` → `ProverKit::prove` → `VerifierKit::verify`, with
//!   the concurrent `KeyRegistry` and its `verify_batch` for many-claim
//!   services — one claim predicate behind all of them — and the
//!   `Artifact` wire format for everything that crosses a process)
//! * [`zkrownn_ledger`] — the registry as a verifiable log: an append-only
//!   Merkle accumulator over registrations with offline-checkable
//!   membership and consistency proofs
//! * [`zkrownn_store`] — the segmented on-disk key store behind streaming
//!   (memory-budgeted) trusted setup and proving
//! * [`zkrownn_deepsigns`] — DeepSigns watermark embedding/extraction
//! * [`zkrownn_nn`] — the neural-network substrate
//! * [`zkrownn_groth16`] / [`zkrownn_gadgets`] / [`zkrownn_r1cs`] — the
//!   zkSNARK stack
//! * [`zkrownn_pairing`] / [`zkrownn_curves`] / [`zkrownn_poly`] /
//!   [`zkrownn_ff`] — the cryptographic substrate

#![warn(missing_docs)]

pub use zkrownn;
pub use zkrownn_curves;
pub use zkrownn_deepsigns;
pub use zkrownn_ff;
pub use zkrownn_gadgets;
pub use zkrownn_groth16;
pub use zkrownn_ledger;
pub use zkrownn_nn;
pub use zkrownn_pairing;
pub use zkrownn_poly;
pub use zkrownn_r1cs;
pub use zkrownn_store;
