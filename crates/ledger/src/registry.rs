//! The registry the service actually serves from: the concurrent
//! [`KeyRegistry`] for verification, composed with the append-only
//! [`Ledger`] recording every `(circuit, statement)` registration.
//!
//! Key verification and ledger queries have different concurrency shapes,
//! so they keep their own synchronization: claim verification only ever
//! takes the key map's lock for a lookup (the coalescer holds an `Arc` to
//! the inner [`KeyRegistry`] and never touches the ledger), while the
//! ledger — appended to rarely, queried cheaply — sits behind one `RwLock`
//! together with the leaf→index map that answers `PROVE_MEMBER` lookups.

use std::collections::HashMap;
use std::sync::{Arc, RwLock};

use zkrownn::{CircuitId, KeyRegistry, VerifierKit};
use zkrownn_groth16::VerifyingKey;

use crate::accumulator::Ledger;
use crate::wire::{ConsistencyProof, LedgerLeaf, LedgerRoot, MembershipProof};

/// What one [`LedgeredRegistry::register`] call did.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Registration {
    /// Whether the circuit's key was newly prepared (pairing
    /// precomputation ran) rather than already cached.
    pub newly_prepared: bool,
    /// The ledger index the `(circuit, statement)` leaf was appended at,
    /// or `None` when that exact pair was already in the ledger.
    pub appended_at: Option<u64>,
}

struct LedgerState {
    ledger: Ledger,
    /// Canonical leaf encoding → index of its (first) appearance.
    index: HashMap<[u8; 64], u64>,
}

impl LedgerState {
    /// Appends `leaf` unless that exact encoding is already in the
    /// ledger; returns the new index, or `None` on a duplicate.
    fn append_unique(&mut self, leaf: [u8; 64]) -> Option<u64> {
        if self.index.contains_key(&leaf) {
            return None;
        }
        let at = self.ledger.append(&leaf);
        self.index.insert(leaf, at);
        Some(at)
    }
}

/// A [`KeyRegistry`] that additionally commits every registration
/// to an append-only Merkle ledger.
///
/// Registration is idempotent on both layers: a repeated circuit skips the
/// pairing precomputation, and a repeated `(circuit, statement)` pair
/// appends no duplicate leaf. The same circuit registered for a *new*
/// statement does append — the ledger records registered disputes, not
/// just key material.
pub struct LedgeredRegistry {
    keys: Arc<KeyRegistry>,
    state: RwLock<LedgerState>,
}

impl Default for LedgeredRegistry {
    fn default() -> Self {
        Self::new()
    }
}

impl LedgeredRegistry {
    /// An empty registry over an empty ledger.
    pub fn new() -> Self {
        Self {
            keys: Arc::new(KeyRegistry::new()),
            state: RwLock::new(LedgerState {
                ledger: Ledger::new(),
                index: HashMap::new(),
            }),
        }
    }

    /// The inner key registry — what the verification hot path (and the
    /// service's coalescer) uses; cloning the `Arc` never touches the
    /// ledger lock.
    pub fn keys(&self) -> &Arc<KeyRegistry> {
        &self.keys
    }

    /// Registers a verifying key for `(id, statement_digest)`: prepares
    /// and caches the key if the circuit is new, and appends the pair's
    /// leaf to the ledger if the pair is new.
    pub fn register(
        &self,
        id: CircuitId,
        statement_digest: [u8; 32],
        vk: &VerifyingKey,
    ) -> Registration {
        let newly_prepared = self.keys.register(id, vk);
        let leaf = LedgerLeaf {
            circuit_id: id,
            statement_digest,
        }
        .to_bytes();
        let appended_at = self
            .state
            .write()
            .expect("ledger lock poisoned")
            .append_unique(leaf);
        Registration {
            newly_prepared,
            appended_at,
        }
    }

    /// Registers a [`VerifierKit`]'s key under its circuit id and the
    /// statement digest it is bound to ([`VerifierKit::bind_statement`]);
    /// an unbound kit records an all-zero statement digest.
    pub fn register_kit(&self, kit: &VerifierKit) -> Registration {
        self.register(
            kit.circuit_id(),
            kit.expected_statement().unwrap_or([0u8; 32]),
            kit.verifying_key(),
        )
    }

    /// Number of registered circuits (distinct keys, not ledger leaves).
    pub fn len(&self) -> usize {
        self.keys.len()
    }

    /// Whether no circuit is registered.
    pub fn is_empty(&self) -> bool {
        self.keys.is_empty()
    }

    /// Number of leaves in the ledger (distinct registered pairs).
    pub fn ledger_size(&self) -> u64 {
        self.state
            .read()
            .expect("ledger lock poisoned")
            .ledger
            .size()
    }

    /// The current signed-off head: size and root, ready to serve.
    pub fn current_root(&self) -> LedgerRoot {
        let state = self.state.read().expect("ledger lock poisoned");
        LedgerRoot {
            size: state.ledger.size(),
            root: state.ledger.root(),
        }
    }

    /// Membership proof for a registered leaf against the current root,
    /// or `None` when that exact `(circuit, statement)` pair was never
    /// registered.
    pub fn prove_member(&self, leaf: &LedgerLeaf) -> Option<MembershipProof> {
        let state = self.state.read().expect("ledger lock poisoned");
        let index = *state.index.get(&leaf.to_bytes())?;
        let path = state
            .ledger
            .prove_membership(index)
            .expect("indexed leaf is in range");
        Some(MembershipProof {
            index,
            size: state.ledger.size(),
            path,
        })
    }

    /// Consistency proof from the root at `old_size` to the current root,
    /// or `None` when `old_size` exceeds the ledger.
    pub fn prove_consistency(&self, old_size: u64) -> Option<ConsistencyProof> {
        let state = self.state.read().expect("ledger lock poisoned");
        let path = state.ledger.prove_consistency(old_size)?;
        Some(ConsistencyProof {
            old_size,
            new_size: state.ledger.size(),
            path,
        })
    }
}

// Shared across server workers exactly like the inner key registry.
const _: () = {
    const fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<LedgeredRegistry>();
};

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wire::verify_membership;
    use zkrownn::Artifact;

    fn dummy_leaf(i: u8) -> (CircuitId, [u8; 32]) {
        (CircuitId::from_bytes([i; 32]), [i ^ 0xff; 32])
    }

    /// Minting a structurally valid verifying key needs the full trusted
    /// setup, so this test drives the ledger half through the same
    /// `append_unique` path `register` uses; the key path is covered by
    /// the service e2e suite.
    #[test]
    fn ledger_side_dedup_and_proofs() {
        let registry = LedgeredRegistry::new();
        assert_eq!(registry.ledger_size(), 0);
        assert_eq!(registry.current_root().size, 0);

        let (id_a, stmt_a) = dummy_leaf(1);
        let (id_b, stmt_b) = dummy_leaf(2);
        {
            let mut state = registry.state.write().unwrap();
            for (i, (id, stmt)) in [(id_a, stmt_a), (id_b, stmt_b), (id_a, stmt_b)]
                .into_iter()
                .enumerate()
            {
                let leaf = LedgerLeaf {
                    circuit_id: id,
                    statement_digest: stmt,
                }
                .to_bytes();
                assert_eq!(state.append_unique(leaf), Some(i as u64));
                // the exact pair is deduplicated
                assert_eq!(state.append_unique(leaf), None);
            }
        }
        assert_eq!(registry.ledger_size(), 3);

        let root = registry.current_root();
        let member = LedgerLeaf {
            circuit_id: id_a,
            statement_digest: stmt_b,
        };
        let proof = registry.prove_member(&member).expect("registered pair");
        assert_eq!(proof.index, 2);
        verify_membership(&root.to_bytes(), &member.to_bytes(), &proof.to_bytes())
            .expect("proof verifies offline");

        let absent = LedgerLeaf {
            circuit_id: id_b,
            statement_digest: stmt_a,
        };
        assert!(registry.prove_member(&absent).is_none());

        let consistency = registry.prove_consistency(2).expect("2 <= 3");
        assert_eq!(consistency.old_size, 2);
        assert_eq!(consistency.new_size, 3);
        assert!(registry.prove_consistency(4).is_none());
    }
}
