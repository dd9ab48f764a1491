//! # zkrownn-ledger — the authority's registry as a verifiable log
//!
//! ZKROWNN's dispute story so far assumes the authority is *online* for
//! every question about its registry. This crate removes that assumption:
//! every `(circuit, statement)` registration is committed to an
//! append-only Merkle accumulator, and two kinds of logarithmic proofs
//! make the registry auditable from a 40-byte commitment alone —
//!
//! * a **membership proof** shows a specific `(circuit, statement)` pair
//!   is in the registry a published root commits to;
//! * a **consistency proof** shows one published root is a strict prefix
//!   of a later one — the authority extended its registry and did not
//!   rewrite history.
//!
//! Both verify offline via [`verify_membership`] / [`verify_consistency`]
//! from raw bytes: no registry, no network, no key material — the shape a
//! third-party auditor needs (the accumulator-over-model-commitments
//! design A2-DIDM uses for registrar-free auditing).
//!
//! Module map:
//!
//! * [`accumulator`] — the RFC 6962-shaped history tree: domain-separated
//!   leaf/node hashing over [`zkrownn::artifact::Sha256`], binary-counter
//!   appends, peak bagging, proof generation, hash-level verification;
//! * [`wire`] — [`LedgerRoot`], [`MembershipProof`] and
//!   [`ConsistencyProof`] as standard [`Artifact`](zkrownn::Artifact)
//!   envelopes, plus the byte-level offline verifiers;
//! * [`registry`] — [`LedgeredRegistry`]: the service-facing composition
//!   of [`zkrownn::KeyRegistry`] and the ledger, appending one
//!   leaf per distinct registration.
//!
//! ```
//! use zkrownn::{Artifact, CircuitId};
//! use zkrownn_ledger::{verify_membership, Ledger, LedgerLeaf, LedgerRoot, MembershipProof};
//!
//! // the authority side: append registrations, publish the root
//! let leaf = LedgerLeaf {
//!     circuit_id: CircuitId::from_bytes([7; 32]),
//!     statement_digest: [9; 32],
//! };
//! let mut ledger = Ledger::new();
//! for i in 0..5u64 {
//!     ledger.append(&LedgerLeaf {
//!         circuit_id: CircuitId::from_bytes([i as u8; 32]),
//!         statement_digest: [0; 32],
//!     }.to_bytes());
//! }
//! let index = ledger.append(&leaf.to_bytes());
//! let root = LedgerRoot { size: ledger.size(), root: ledger.root() };
//! let proof = MembershipProof {
//!     index,
//!     size: ledger.size(),
//!     path: ledger.prove_membership(index).unwrap(),
//! };
//!
//! // the auditor side: bytes in, verdict out — the authority can be gone
//! verify_membership(&root.to_bytes(), &leaf.to_bytes(), &proof.to_bytes())
//!     .expect("the pair is in the committed registry");
//! ```

#![deny(missing_docs)]

pub mod accumulator;
pub mod registry;
pub mod wire;

pub use accumulator::{
    empty_root, leaf_hash, node_hash, verify_consistency_roots, verify_membership_hashes, Ledger,
    LEDGER_DOMAIN_TAG,
};
pub use registry::{LedgeredRegistry, Registration};
pub use wire::{
    verify_consistency, verify_membership, ConsistencyProof, LedgerError, LedgerLeaf, LedgerRoot,
    MembershipProof, LEAF_LEN,
};
