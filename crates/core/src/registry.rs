//! The verifier-side key registry: cached pairing precomputation and
//! amortized batch verification.
//!
//! A verification service receives many claims from many claimants, most of
//! them against a handful of circuits (one per disputed model family). Three
//! costs dominate a naive per-claim loop and are amortizable:
//!
//! * **pairing precomputation** — `VerifyingKey::prepare` runs `e(α, β)`
//!   and the G2 line precomputations; the [`KeyRegistry`] does it once per
//!   [`CircuitId`] and caches the result;
//! * **input preparation** — folding the suspect model's parameters into
//!   the instance commitment (one MSM over the key's `γ_abc` bases);
//!   [`KeyRegistry::verify_batch`] does it once per distinct
//!   statement-and-verdict, not once per claim — including on the
//!   per-claim fallback path after a failed combined check;
//! * **final exponentiations** — `verify_batch` folds all positive
//!   same-circuit claims into one random-linear-combination pairing check
//!   (`2n + 2` Miller loops and one final exponentiation instead of `3n`
//!   and `n`), falling back to per-claim verification only when the
//!   combined check fails — so a batch with a single forged claim still
//!   yields precise per-claim verdicts.
//!
//! The registry owns only the *lookup*; the verdict itself is the one
//! predicate in [`crate::verify`], which [`KeyRegistry::verify`] enters as
//! a batch of one. There is one registry type and it is concurrent: every
//! operation takes `&self`, the map sits behind a single reader-writer lock
//! that is held for a lookup or an insert and never across pairing work —
//! `register` prepares the key before taking it, verification clones the
//! key's `Arc` and lets go — so a runtime registration never waits behind
//! an in-flight verification, nor readers behind it.
//!
//! Note that the registry authenticates each claim against the statement
//! *it carries*: `Ok(())` means "the watermark is in the model the claimant
//! described". A service adjudicating a dispute over one specific model
//! must additionally pin claims to that model's statement — compare
//! `claim.statement.content_digest()` against the disputed statement's
//! digest, as [`crate::VerifierKit::bind_statement`] does for the
//! single-kit path.

use crate::artifact::CircuitId;
use crate::error::ZkrownnError;
use crate::verify::{verify_claims, SignedClaim, Undrawn, VerifierKit};
use std::collections::{BTreeMap, HashMap};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, RwLock};
use zkrownn_groth16::{PreparedVerifyingKey, VerifyingKey};

/// A concurrent cache of prepared verifying keys, indexed by circuit id.
///
/// The type is `Send + Sync` by construction (asserted at compile time) —
/// wrap it in an `Arc` and hand it to every worker; workers serving the
/// same circuit share the cached [`PreparedVerifyingKey`] without cloning
/// it.
#[derive(Default)]
pub struct KeyRegistry {
    prepared: RwLock<HashMap<CircuitId, Arc<PreparedVerifyingKey>>>,
    preparations: AtomicUsize,
}

/// Alias kept because the frozen benchmark harness (`zkbench/`) names the
/// registry this way; write [`KeyRegistry`].
pub type ShardedKeyRegistry = KeyRegistry;

impl KeyRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    fn get(&self, id: CircuitId) -> Option<Arc<PreparedVerifyingKey>> {
        let prepared = self.prepared.read().expect("registry poisoned");
        prepared.get(&id).cloned()
    }

    /// Registers a verifying key for a circuit, preparing it (pairing
    /// precomputation) unless that circuit is already cached. Returns
    /// `true` if the key was newly registered.
    pub fn register(&self, id: CircuitId, vk: &VerifyingKey) -> bool {
        if self.contains(id) {
            return false;
        }
        // prepared outside the lock; of two threads racing to register one
        // circuit the loser's precomputation is dropped, uncounted
        let pvk = Arc::new(vk.prepare());
        let mut prepared = self.prepared.write().expect("registry poisoned");
        if prepared.contains_key(&id) {
            return false;
        }
        prepared.insert(id, pvk);
        self.preparations.fetch_add(1, Ordering::Relaxed);
        true
    }

    /// Registers a [`VerifierKit`]'s key under its circuit id.
    pub fn register_kit(&self, kit: &VerifierKit) -> bool {
        self.register(kit.circuit_id(), kit.verifying_key())
    }

    /// Whether a circuit's key is registered.
    pub fn contains(&self, id: CircuitId) -> bool {
        self.get(id).is_some()
    }

    /// Number of registered circuits.
    pub fn len(&self) -> usize {
        self.prepared.read().expect("registry poisoned").len()
    }

    /// Whether the registry is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// How many pairing precomputations this registry holds — one per
    /// registered circuit, however many claims are verified against it.
    pub fn preparations(&self) -> usize {
        self.preparations.load(Ordering::Relaxed)
    }

    /// Verifies a single claim against the registered keys: a batch of one.
    pub fn verify(&self, claim: &SignedClaim) -> Result<(), ZkrownnError> {
        self.verify_batch(core::slice::from_ref(claim), &mut Undrawn)
            .pop()
            .expect("one verdict per claim")
    }

    /// Verifies many claims, amortizing everything amortizable, and returns
    /// one `Result` per claim (index-aligned with `claims`).
    ///
    /// Claims are grouped by circuit id; within a group, the instance
    /// commitment (the public-input MSM) is prepared once per distinct
    /// statement and verdict, and all positive claims — when there are two
    /// or more — are checked with a single random-linear-combination
    /// pairing equation (coefficients drawn from `rng`). If the combined
    /// check fails, the group falls back to per-claim verification —
    /// reusing the already-prepared commitments — so exactly the bad claims
    /// are flagged. Negative-verdict claims are verified individually and
    /// reported as [`ZkrownnError::NegativeVerdict`] when their proof is
    /// sound (a forged negative claim still reports
    /// [`ZkrownnError::InvalidProof`]).
    pub fn verify_batch<R: rand::Rng + ?Sized>(
        &self,
        claims: &[SignedClaim],
        rng: &mut R,
    ) -> Vec<Result<(), ZkrownnError>> {
        // group by the circuit the proof names
        let mut groups: BTreeMap<CircuitId, Vec<usize>> = BTreeMap::new();
        for (i, claim) in claims.iter().enumerate() {
            groups.entry(claim.circuit_id()).or_default().push(i);
        }
        let mut results = vec![Ok(()); claims.len()];
        for (id, indices) in groups {
            let group: Vec<&SignedClaim> = indices.iter().map(|&i| &claims[i]).collect();
            // The registry passes no bound digest: it serves every statement
            // of a circuit. (The ledger records which statements were
            // registered; feeding those here is where a statement-id cache
            // would land.)
            let verdicts = match self.get(id) {
                Some(pvk) => verify_claims(&pvk, id, None, &group, rng),
                None => vec![Err(ZkrownnError::UnknownCircuit(id)); group.len()],
            };
            for (i, verdict) in indices.into_iter().zip(verdicts) {
                results[i] = verdict;
            }
        }
        results
    }
}

// The whole point of the registry is to be shared across worker threads;
// lock it in at compile time so a non-Send field can never sneak into the
// prepared-key cache unnoticed.
const _: () = {
    const fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<KeyRegistry>();
    assert_send_sync::<PreparedVerifyingKey>();
};
