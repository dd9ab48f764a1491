//! # zkrownn-service — the dispute authority as a daemon
//!
//! ZKROWNN's end state is not a library a researcher links against but a
//! *service*: a dispute authority that holds the verifying keys for the
//! circuits under its jurisdiction and answers ownership claims from many
//! independent clients, fast. This crate is that serving layer:
//!
//! * **wire protocol** ([`protocol`]) — length-prefixed frames carrying
//!   [`SignedClaim`] artifact bytes in and typed status codes out, with a
//!   `STATS` endpoint serving a JSON metrics snapshot and a `SHUTDOWN`
//!   opcode for a graceful stop;
//! * **coalescing verifier** ([`batcher`]) — concurrent in-flight claims
//!   for the same circuit are folded into one random-linear-combination
//!   pairing check, so the registry's `verify_batch` amortization (one
//!   input MSM per distinct statement, `2n + 2` Miller loops instead of
//!   `3n`) is realized across *independent clients*, not just within one
//!   caller's batch;
//! * **server** ([`server`]) — a hand-rolled TCP listener and worker
//!   thread pool over a [`LedgeredRegistry`] (no async runtime), with
//!   per-frame deadlines, idle shutdown, and structured request/latency/
//!   batch-occupancy metrics ([`metrics`]);
//! * **client** ([`client`]) — a small blocking client used by the load
//!   generator (`loadgen` in `zkrownn-bench`) and the integration tests.
//!
//! Every registration is also committed to an append-only Merkle ledger
//! (see `zkrownn-ledger`): the `ROOT`, `PROVE_MEMBER` and `CONSISTENCY`
//! opcodes let any client fetch the 40-byte registry commitment plus
//! logarithmic proofs that verify offline, with the authority gone.
//!
//! ## Embedding the authority
//!
//! ```
//! use rand::SeedableRng;
//! use std::sync::Arc;
//! use zkrownn::{Authority, ExtractionSpec, QuantLayer, QuantizedModel};
//! use zkrownn_gadgets::FixedConfig;
//! use zkrownn_ledger::{verify_membership, LedgerLeaf, LedgeredRegistry};
//! use zkrownn_service::{serve, Client, ServerConfig, Status};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! // a (tiny) disputed model and the owner's private watermark witness
//! let cfg = FixedConfig::default();
//! let model = QuantizedModel {
//!     layers: vec![
//!         QuantLayer::Dense { in_dim: 2, out_dim: 2, w: vec![cfg.encode(0.5); 4], b: vec![0; 2] },
//!         QuantLayer::ReLU,
//!     ],
//!     input_len: 2,
//!     cfg,
//! };
//! let spec = ExtractionSpec {
//!     model,
//!     triggers: vec![vec![cfg.encode(1.0); 2]],
//!     projection: vec![cfg.encode(0.25); 4],
//!     signature: vec![true, false],
//!     max_errors: 2,
//!     fold_average: false,
//!     cfg,
//! };
//! let mut rng = rand::rngs::StdRng::seed_from_u64(1);
//! let (prover, verifier) = Authority::setup(&spec, &mut rng);
//!
//! // the authority registers the circuit's key (which also appends a leaf
//! // to the registration ledger) and starts serving
//! let statement_digest = prover.statement().content_digest();
//! let registry = Arc::new(LedgeredRegistry::new());
//! registry.register(verifier.circuit_id(), statement_digest, verifier.verifying_key());
//! let handle = serve(ServerConfig::default(), Arc::clone(&registry))?;
//!
//! // a claimant ships their claim over the socket and gets a verdict
//! let claim = prover.prove(&mut rng)?;
//! let mut client = Client::connect(handle.addr())?;
//! assert_eq!(client.verify(&claim)?.status, Status::Ok);
//!
//! // anyone can pull the ledger head plus a membership proof and check
//! // the registration offline, long after the authority is gone
//! let leaf = LedgerLeaf { circuit_id: verifier.circuit_id(), statement_digest };
//! let root_bytes = client.ledger_root()?.payload;
//! let proof_bytes = client.prove_member(&leaf)?.payload;
//! handle.shutdown_and_join();
//! verify_membership(&root_bytes, &leaf.to_bytes(), &proof_bytes)?;
//! # Ok(())
//! # }
//! ```
//!
//! [`SignedClaim`]: zkrownn::SignedClaim

#![warn(missing_docs)]

pub mod batcher;
pub mod client;
pub mod metrics;
pub mod protocol;
pub mod server;

pub use batcher::{Coalescer, CoalescerConfig};
pub use client::{stats_field_f64, stats_field_u64, Client, RetryPolicy, RetryingClient};
pub use metrics::{Metrics, MetricsSnapshot};
pub use protocol::{
    encode_request, encode_response, read_request, read_request_body, read_response, write_request,
    write_response, Opcode, ProtocolError, Request, Response, Status, HEADER_LEN, MAX_FRAME_LEN,
};
pub use server::{serve, ServerConfig, ServerHandle};
pub use zkrownn_ledger::{LedgerLeaf, LedgeredRegistry};

use std::path::Path;

use zkrownn::{Artifact, CircuitId, WireError};
use zkrownn_groth16::VerifyingKey;
use zkrownn_store::{KeyStore, StoreBackend};

/// Serializes a key registration — the `.vk` files `zkrownn-authority
/// --keys DIR` loads at startup: the 32-byte [`CircuitId`] digest, the
/// 32-byte statement content digest the circuit was set up for (the second
/// half of its ledger leaf), then the [`VerifyingKey`] artifact envelope.
pub fn registration_bytes(id: CircuitId, statement_digest: [u8; 32], vk: &VerifyingKey) -> Vec<u8> {
    let mut out = Vec::with_capacity(64 + vk.serialized_size());
    out.extend_from_slice(id.as_bytes());
    out.extend_from_slice(&statement_digest);
    out.extend_from_slice(&Artifact::to_bytes(vk));
    out
}

/// Parses a key-registration file written by [`registration_bytes`].
pub fn parse_registration(bytes: &[u8]) -> Result<(CircuitId, [u8; 32], VerifyingKey), WireError> {
    if bytes.len() < 64 {
        return Err(WireError::Truncated {
            needed: 64,
            got: bytes.len(),
        });
    }
    let mut id = [0u8; 32];
    id.copy_from_slice(&bytes[..32]);
    let mut digest = [0u8; 32];
    digest.copy_from_slice(&bytes[32..64]);
    let vk = <VerifyingKey as Artifact>::from_bytes(&bytes[64..])?;
    Ok((CircuitId::from_bytes(id), digest, vk))
}

/// What [`load_keys_dir`] found and did.
#[derive(Debug, Default)]
pub struct KeyLoadReport {
    /// Registrations successfully loaded (both `.vk` and `.zkst`).
    pub loaded: usize,
    /// Key files that could not be read or parsed, with the error. They
    /// have been renamed to `<name>.corrupt`.
    pub quarantined: Vec<(std::path::PathBuf, String)>,
    /// Leftover `*.tmp` staging files from an interrupted writer. They
    /// are never loaded (the atomic-commit protocol renames a finished
    /// store onto its final path) and are reported so operators can
    /// clean them up.
    pub stale_tmp: usize,
}

/// Registers every `*.vk` key-registration file **and** every `*.zkst`
/// segmented key store under `dir`.
///
/// Files of both kinds are processed in one sorted path order, so the
/// registration ledger — whose roots depend on append order — is identical
/// across runs and machines for the same key directory, regardless of
/// directory-iteration order. A `.zkst` store contributes its embedded
/// circuit-id / statement-digest metadata and its verifying-key segments;
/// the proving-key segments are never read, so registering a multi-GB
/// store costs only the verifying key.
///
/// # Recovery semantics
///
/// A file that cannot be read or parsed (truncated by a crash, bit-rotted,
/// wrong format) is **skipped**: the survivors still load, in the same
/// sorted order they would have loaded in without the bad file, so the
/// ledger root over the survivors is stable. Skipped files are recorded in
/// [`KeyLoadReport::quarantined`] and renamed to `<name>.corrupt`, so the
/// next startup doesn't re-parse known-bad bytes and an operator can
/// inspect or restore them (best-effort; a failed rename still skips).
/// With `strict` (`--strict-keys` on the binary) the first bad file aborts
/// the load instead, untouched — off in the daemon by default, because one
/// torn file should not take down a daemon serving every other circuit.
/// `*.tmp` staging files left by an interrupted writer are never loaded
/// and are counted in [`KeyLoadReport::stale_tmp`].
pub fn load_keys_dir(
    registry: &LedgeredRegistry,
    dir: &Path,
    strict: bool,
) -> Result<KeyLoadReport, String> {
    let entries = std::fs::read_dir(dir).map_err(|e| e.to_string())?;
    let mut paths = Vec::new();
    let mut report = KeyLoadReport::default();
    for entry in entries {
        let path = entry.map_err(|e| e.to_string())?.path();
        match path.extension().and_then(|e| e.to_str()) {
            Some("vk") | Some("zkst") => paths.push(path),
            Some("tmp") => {
                let name = path.file_name().and_then(|n| n.to_str()).unwrap_or("");
                if name.ends_with(".vk.tmp") || name.ends_with(".zkst.tmp") {
                    report.stale_tmp += 1;
                }
            }
            _ => {}
        }
    }
    paths.sort();
    for path in paths {
        let parsed = if path.extension().and_then(|e| e.to_str()) == Some("zkst") {
            read_store_registration(&path)
        } else {
            std::fs::read(&path)
                .map_err(|e| e.to_string())
                .and_then(|bytes| parse_registration(&bytes).map_err(|e| e.to_string()))
        };
        match parsed {
            Ok((id, digest, vk)) => {
                registry.register(id, digest, &vk);
                report.loaded += 1;
            }
            Err(e) if strict => return Err(format!("{}: {e}", path.display())),
            Err(e) => {
                let mut quarantined = path.clone().into_os_string();
                quarantined.push(".corrupt");
                let _ = std::fs::rename(&path, &quarantined);
                report.quarantined.push((path, e));
            }
        }
    }
    Ok(report)
}

/// Extracts a registration from a segmented key store: its embedded
/// metadata (circuit id, statement digest) plus the verifying-key segments.
/// A store without a metadata segment cannot be registered — the registry
/// is keyed by circuit id, which the store would not vouch for.
fn read_store_registration(path: &Path) -> Result<(CircuitId, [u8; 32], VerifyingKey), String> {
    // buffered reads: registration touches only the constants, IC and meta
    // segments, so mapping the (potentially huge) key would be waste
    let store = KeyStore::open_with(path, StoreBackend::Buffered).map_err(|e| e.to_string())?;
    let meta = store
        .meta()
        .map_err(|e| e.to_string())?
        .ok_or("key store has no circuit-binding metadata segment")?;
    let vk = store.verifying_key().map_err(|e| e.to_string())?;
    Ok((
        CircuitId::from_bytes(meta.circuit_id),
        meta.statement_digest,
        vk,
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registration_rejects_short_buffers() {
        assert!(matches!(
            parse_registration(&[0u8; 63]),
            Err(WireError::Truncated {
                needed: 64,
                got: 63
            })
        ));
    }
}
