//! Claim coalescing: fold concurrent in-flight claims for the same
//! circuit into one RLC-batched pairing check.
//!
//! The registry's `verify_batch` amortizes pairing preparation, the
//! public-input MSM, and final exponentiations — but only across claims
//! that arrive *in one call*. A server whose workers each call `verify`
//! independently would never realize that win. The [`Coalescer`] recovers
//! it with group-commit dynamics:
//!
//! * each worker appends its claim to a per-circuit queue and parks on a
//!   private result channel;
//! * the first worker to find a free drainer slot becomes the **drainer**:
//!   it repeatedly swaps out everything queued (up to
//!   [`CoalescerConfig::max_batch`]), runs one [`KeyRegistry::verify_batch`]
//!   over the whole set, and posts each result back — looping until the
//!   queue is empty;
//! * while a batch is in the pairing kernel (milliseconds), newly arriving
//!   claims pile up behind it, so under load batches grow to match the
//!   arrival rate with *no* added idle waiting — an unloaded server still
//!   verifies a lone claim immediately in a batch of one.
//!
//! Claims for different circuits use different queues (and the registry
//! holds its lock only to look a key up), so disputes over unrelated models
//! never serialize behind each other.
//!
//! A claim takes one of two routes, and both end in the same registry
//! `verify_batch` call over a slice of one or many (the registry's verdict
//! kernel treats a batch of one as the plain single-claim check, so the
//! routes differ only in how many claims share a call):
//!
//! * the **queue** of its circuit, as above — with
//!   [`CoalescerConfig::max_batch`]` = 1` every drain takes one claim, which
//!   is the whole "coalescing off" ablation: a configuration, not a switch;
//! * a **batch of one**, skipping the queues, when the circuit is degraded
//!   (below) or is not registered at all. The circuit id is 32 bytes the
//!   claimant picks, so an unregistered id must never earn a queue: it
//!   would stay in the map forever, and a client looping over random ids
//!   would grow the daemon without bound. The registry still answers
//!   `UnknownCircuit`, and the claim still counts as a batch of one.
//!
//! # Degradation under poisoned batches
//!
//! A batch that fails its combined RLC check pays for itself twice: the
//! batched pairing check *plus* a per-claim fallback for every member.
//! One adversarial (or just broken) claimant hammering a circuit with
//! invalid proofs can therefore force every honest claim sharing its
//! batch to pay the fallback tax. After
//! [`CoalescerConfig::poison_threshold`] *consecutive* poisoned batches
//! for a circuit, the coalescer degrades that circuit to batches of one
//! for [`CoalescerConfig::degrade_cooldown`] — honest claims then pay
//! exactly one pairing check instead of riding in doomed batches. A batch
//! counts as poisoned only if it actually paid that tax: two or more
//! positive claims reached the combined check and one of them was forged
//! (forged *negative* claims are settled on their own and cost nobody else
//! anything). Degradations are counted in the metrics, and the circuit
//! re-enters batching automatically when the cooldown lapses.
//!
//! # A panic in the verdict kernel
//!
//! Decoding rejects every statement the kernel is known to choke on, so a
//! panic under `verify_batch` is a bug — but one claim's bug must not
//! become another claim's verdict, or the circuit's outage. The drainer
//! that hit it unwinds (and its server worker with it); its slot is given
//! back by a drop guard, so the circuit keeps its `max_drainers`; the
//! other members of its batch, whose result senders it drops on the way
//! out, are answered `ZkrownnError::Internal` — retryable, and no
//! statement about their claims — instead of waiting forever.

use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{mpsc, Arc, Mutex, PoisonError};
use std::time::{Duration, Instant, SystemTime};

use rand::rngs::StdRng;
use rand::SeedableRng;
use zkrownn::{CircuitId, KeyRegistry, SignedClaim, ZkrownnError};
use zkrownn_groth16::VerificationError;

use crate::metrics::Metrics;

/// Tuning knobs for the [`Coalescer`].
#[derive(Clone, Debug)]
pub struct CoalescerConfig {
    /// Ceiling on one RLC batch — bounds worst-case latency for the claim
    /// at the head of a deep queue. `1` turns coalescing off (the ablation
    /// point: every claim pays its own input MSM and pairing check).
    pub max_batch: usize,
    /// Concurrent drainers allowed per circuit. On a multi-core box a few
    /// parallel batches keep every core busy; excess workers park and let
    /// their claims coalesce.
    pub max_drainers: usize,
    /// Consecutive poisoned batches (multi-claim batches whose combined
    /// RLC check failed) a circuit tolerates before it is degraded to
    /// per-claim verification.
    pub poison_threshold: u32,
    /// How long a degraded circuit stays on the per-claim path before
    /// batching resumes.
    pub degrade_cooldown: Duration,
}

impl Default for CoalescerConfig {
    fn default() -> Self {
        Self {
            max_batch: 64,
            max_drainers: std::thread::available_parallelism()
                .map(|v| v.get())
                .unwrap_or(1),
            poison_threshold: 3,
            degrade_cooldown: Duration::from_secs(2),
        }
    }
}

struct Pending {
    claim: SignedClaim,
    tx: mpsc::Sender<Result<(), ZkrownnError>>,
}

#[derive(Default)]
struct QueueState {
    pending: VecDeque<Pending>,
    drainers: usize,
    /// Consecutive multi-claim batches whose combined RLC check failed.
    poison_streak: u32,
    /// While set and in the future, this circuit verifies per-claim.
    degraded_until: Option<Instant>,
}

#[derive(Default)]
struct CircuitQueue {
    state: Mutex<QueueState>,
}

/// One of a circuit's `max_drainers` slots, held for the length of a
/// [`Coalescer::drain`]. The drain loop gives it back itself, under the
/// same lock that found the queue empty; this guard gives it back when
/// the loop never got that far because the verdict kernel panicked — so a
/// claim that kills its worker costs the circuit nothing but that worker.
struct DrainerSlot<'a> {
    queue: &'a CircuitQueue,
    held: bool,
}

impl Drop for DrainerSlot<'_> {
    fn drop(&mut self) {
        if !self.held {
            return;
        }
        // the counters are valid at every step, so a poisoned lock is
        // still a usable one (and `Drop` must not panic)
        let mut state = self
            .queue
            .state
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
        state.drainers -= 1;
        if state.drainers == 0 {
            // the workers behind these entries parked because drainers
            // were running; none is left, so answer them `Internal` (by
            // dropping their senders) rather than never
            state.pending.clear();
        }
    }
}

/// The coalescing verification front end shared by all server workers.
pub struct Coalescer {
    registry: Arc<KeyRegistry>,
    metrics: Arc<Metrics>,
    queues: Mutex<HashMap<CircuitId, Arc<CircuitQueue>>>,
    max_batch: usize,
    max_drainers: usize,
    poison_threshold: u32,
    degrade_cooldown: Duration,
    rng_salt: AtomicU64,
}

impl Coalescer {
    /// Builds a coalescer over a shared registry and metrics sink.
    pub fn new(registry: Arc<KeyRegistry>, metrics: Arc<Metrics>, config: CoalescerConfig) -> Self {
        Self {
            registry,
            metrics,
            queues: Mutex::new(HashMap::new()),
            max_batch: config.max_batch.max(1),
            max_drainers: config.max_drainers.max(1),
            poison_threshold: config.poison_threshold.max(1),
            degrade_cooldown: config.degrade_cooldown,
            rng_salt: AtomicU64::new(0x5a6b_726f_776e_6e01),
        }
    }

    /// The configured batch ceiling (at least 1), as `STATS` reports it.
    pub fn max_batch(&self) -> usize {
        self.max_batch
    }

    /// RLC challenge randomness: a fresh rng per batch, seeded from wall
    /// clock and a counter. (The vendored xoshiro rng stands in for a CSPRNG
    /// here the same way it does for `StdRng` everywhere else in this
    /// offline reproduction.)
    fn batch_rng(&self) -> StdRng {
        let salt = self
            .rng_salt
            .fetch_add(0x9e37_79b9_7f4a_7c15, Ordering::Relaxed);
        let clock = SystemTime::now()
            .duration_since(SystemTime::UNIX_EPOCH)
            .map(|d| d.subsec_nanos() as u64 ^ d.as_secs())
            .unwrap_or(0);
        StdRng::seed_from_u64(salt ^ clock)
    }

    /// Records a batch and runs it through the registry — the one way a
    /// claim, alone or in company, reaches the verdict kernel.
    fn verify_batch(&self, claims: &[SignedClaim]) -> Vec<Result<(), ZkrownnError>> {
        self.metrics.record_batch(claims.len());
        self.registry.verify_batch(claims, &mut self.batch_rng())
    }

    /// Verifies one claim, transparently coalescing it with whatever other
    /// claims for the same circuit are in flight. Blocks until this claim's
    /// own verdict is known.
    pub fn verify(&self, claim: SignedClaim) -> Result<(), ZkrownnError> {
        let alone = |claim| {
            let mut verdict = self.verify_batch(&[claim]);
            verdict.pop().expect("one verdict per claim")
        };
        if !self.registry.contains(claim.circuit_id()) {
            // a claimant-chosen id earns no queue; see the module docs
            return alone(claim);
        }

        let queue = {
            let mut queues = self.queues.lock().expect("queue map poisoned");
            Arc::clone(queues.entry(claim.circuit_id()).or_default())
        };

        let (tx, rx) = mpsc::channel();
        let drain = {
            let mut state = queue.state.lock().expect("circuit queue poisoned");
            if let Some(until) = state.degraded_until {
                if Instant::now() < until {
                    // degraded circuit: skip the queue, verify directly
                    drop(state);
                    return alone(claim);
                }
                // cooldown lapsed: resume batching with a clean slate
                state.degraded_until = None;
                state.poison_streak = 0;
            }
            state.pending.push_back(Pending { claim, tx });
            // become a drainer unless enough workers are already draining
            // this circuit; their drain loops are guaranteed to observe the
            // entry just pushed (they re-check under this same lock)
            if state.drainers < self.max_drainers {
                state.drainers += 1;
                true
            } else {
                false
            }
        };
        if drain {
            self.drain(&queue);
        }
        // the sender is dropped unanswered only when the drainer holding
        // it unwound out of the verdict kernel; this claim was in that
        // batch (or queued behind it) and is not the one to blame
        rx.recv().unwrap_or(Err(ZkrownnError::Internal(
            "the batch this claim rode in was lost to a panic",
        )))
    }

    /// Drains a circuit queue until it is empty: repeatedly swap out up to
    /// `max_batch` pending claims, batch-verify them, and post results.
    fn drain(&self, queue: &CircuitQueue) {
        let mut slot = DrainerSlot { queue, held: true };
        loop {
            let taken: Vec<Pending> = {
                let mut state = queue.state.lock().expect("circuit queue poisoned");
                if state.pending.is_empty() {
                    state.drainers -= 1;
                    slot.held = false;
                    return;
                }
                let n = state.pending.len().min(self.max_batch);
                state.pending.drain(..n).collect()
            };
            let (claims, txs): (Vec<SignedClaim>, Vec<_>) =
                taken.into_iter().map(|p| (p.claim, p.tx)).unzip();
            let results = self.verify_batch(&claims);
            let verdicts: Vec<bool> = claims.iter().map(SignedClaim::verdict).collect();
            self.track_poisoning(queue, combined_check_failed(&verdicts, &results));
            for (tx, result) in txs.into_iter().zip(results) {
                // a receiver can only be gone if its worker died; dropping
                // the result is then the right thing
                let _ = tx.send(result);
            }
        }
    }

    /// Updates a circuit's poison streak after a batch and degrades it to
    /// per-claim verification once the streak reaches the threshold. Only
    /// batches that ran a combined check count either way: a forged proof
    /// that was settled alone costs nobody else anything, and a success
    /// without a combined check says nothing about whether the poisoner
    /// left.
    fn track_poisoning(&self, queue: &CircuitQueue, poisoned: Option<bool>) {
        let Some(poisoned) = poisoned else { return };
        let mut state = queue.state.lock().expect("circuit queue poisoned");
        if !poisoned {
            state.poison_streak = 0;
            return;
        }
        state.poison_streak += 1;
        if state.poison_streak >= self.poison_threshold && state.degraded_until.is_none() {
            state.degraded_until = Some(Instant::now() + self.degrade_cooldown);
            self.metrics.degradations.add(1);
        }
    }
}

/// Whether a batch's combined RLC check ran and failed — i.e. whether its
/// members paid the fallback tax. `None` when fewer than two positive
/// claims reached the combined check (there was none to fail); otherwise
/// `Some(true)` iff one of them came back with a failed pairing equation.
/// Negative claims, and positives turned away before the pairing stage
/// (unknown or mismatched circuit, wrong input count), never enter it.
fn combined_check_failed(verdicts: &[bool], results: &[Result<(), ZkrownnError>]) -> Option<bool> {
    let forged = Err(ZkrownnError::InvalidProof(VerificationError::InvalidProof));
    let reached: Vec<_> = verdicts
        .iter()
        .zip(results)
        .filter(|(positive, result)| **positive && (result.is_ok() || **result == forged))
        .collect();
    (reached.len() >= 2).then(|| reached.iter().any(|(_, result)| result.is_err()))
}

// the shared claim corpus of the verdict-equivalence suites (included by
// path: this crate has no edge to the root package)
#[cfg(test)]
#[path = "../../../tests/support/verdict_corpus.rs"]
mod verdict_corpus;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn config_defaults_are_sane() {
        let c = CoalescerConfig::default();
        assert!(c.max_batch >= 1);
        assert!(c.max_drainers >= 1);
        assert!(c.poison_threshold >= 1);
        assert!(c.degrade_cooldown > Duration::ZERO);
    }

    use combined_check_failed as poisoned;
    const FORGED: Result<(), ZkrownnError> =
        Err(ZkrownnError::InvalidProof(VerificationError::InvalidProof));

    #[test]
    fn a_forged_positive_among_positives_poisons_the_batch() {
        assert_eq!(poisoned(&[true, true], &[Ok(()), FORGED]), Some(true));
        let mixed = [FORGED, FORGED, Ok(())];
        assert_eq!(poisoned(&[true, false, true], &mixed), Some(true));
        // a clean combined check is what resets the streak
        assert_eq!(poisoned(&[true, true], &[Ok(()), Ok(())]), Some(false));
    }

    #[test]
    fn claims_settled_alone_never_poison_the_batch() {
        // the forged claim is negative: it never entered the combined check
        assert_eq!(poisoned(&[true, false], &[Ok(()), FORGED]), None);
        // a lone positive — forged or not — is a plain pairing check
        assert_eq!(poisoned(&[true], &[FORGED]), None);
        assert_eq!(poisoned(&[true, false], &[FORGED, FORGED]), None);
        // positives turned away before the pairing stage do not count
        let (expected, got) = (3, 2);
        let wrong_len = VerificationError::InputLengthMismatch { expected, got };
        let wrong_len = Err(ZkrownnError::InvalidProof(wrong_len));
        let turned_away = [Ok(()), wrong_len, Err(ZkrownnError::StatementMismatch)];
        assert_eq!(poisoned(&[true, true, true], &turned_away), None);
    }

    /// The circuit id is claimant-chosen: 64 distinct unregistered ids get
    /// 64 typed rejections and leave nothing behind; a registered id gets
    /// its one queue.
    #[test]
    fn unregistered_circuit_ids_never_earn_a_queue() {
        let corpus = verdict_corpus::corpus();
        let claim = honest_claim(&corpus);
        let registry = Arc::new(KeyRegistry::new());
        registry.register_kit(&corpus.disputed);
        let metrics = Arc::new(Metrics::new());
        let coalescer = Coalescer::new(registry, Arc::clone(&metrics), CoalescerConfig::default());

        for i in 0..64u8 {
            let mut stranger = claim.clone();
            stranger.proof.circuit_id = CircuitId::from_bytes([i; 32]);
            let verdict = coalescer.verify(stranger);
            assert!(
                matches!(verdict, Err(ZkrownnError::UnknownCircuit(_))),
                "{verdict:?}"
            );
        }
        assert_eq!(coalescer.queues.lock().unwrap().len(), 0);
        coalescer
            .verify(claim)
            .expect("the registered circuit verifies");
        assert_eq!(coalescer.queues.lock().unwrap().len(), 1);
        // all 65 went through the one verdict kernel, as batches of one
        let snapshot = metrics.snapshot();
        assert_eq!((snapshot.batches, snapshot.batch_max), (65, 1));
    }

    fn honest_claim(corpus: &verdict_corpus::Corpus) -> SignedClaim {
        let honest = corpus.cases.iter().find(|case| case.name == "honest");
        honest
            .expect("the corpus has an honest claim")
            .claim
            .clone()
    }

    /// A claim the verdict kernel panics on: the statement says three
    /// inputs, its first layer takes two. Decoding refuses it
    /// (`WireError::Malformed`), so it is built by hand — it stands for
    /// whatever kernel bug the decoder does not know about yet.
    fn kernel_panicking_claim(honest: &SignedClaim) -> SignedClaim {
        let mut claim = honest.clone();
        claim.statement.model.input_len += 1;
        claim
    }

    fn coalescer_for(corpus: &verdict_corpus::Corpus, max_drainers: usize) -> Arc<Coalescer> {
        let registry = Arc::new(KeyRegistry::new());
        registry.register_kit(&corpus.disputed);
        let config = CoalescerConfig {
            max_drainers,
            ..CoalescerConfig::default()
        };
        Arc::new(Coalescer::new(registry, Arc::new(Metrics::new()), config))
    }

    fn drainers(coalescer: &Coalescer, id: CircuitId) -> usize {
        let queue = Arc::clone(&coalescer.queues.lock().unwrap()[&id]);
        let state = queue.state.lock().unwrap();
        state.drainers
    }

    /// `verify` on a thread of its own, the verdict (if any) on a channel.
    fn verify_elsewhere(
        coalescer: &Arc<Coalescer>,
        claim: SignedClaim,
    ) -> mpsc::Receiver<Result<(), ZkrownnError>> {
        let (tx, rx) = mpsc::channel();
        let coalescer = Arc::clone(coalescer);
        std::thread::spawn(move || tx.send(coalescer.verify(claim)));
        rx
    }

    const DEADLINE: Duration = Duration::from_secs(60);

    /// `max_drainers` claims that each kill the thread verifying them must
    /// leave the circuit serving: every slot comes back, and the next
    /// honest claim gets its verdict. (Before the slot was unwind-safe the
    /// counter stayed at `max_drainers` and that claim parked forever.)
    #[test]
    fn a_panicking_claim_gives_its_drainer_slot_back() {
        let corpus = verdict_corpus::corpus();
        let honest = honest_claim(&corpus);
        let max_drainers = 3;
        let coalescer = coalescer_for(&corpus, max_drainers);
        for _ in 0..max_drainers {
            let (coalescer, claim) = (Arc::clone(&coalescer), kernel_panicking_claim(&honest));
            let died = std::thread::spawn(move || coalescer.verify(claim)).join();
            assert!(died.is_err(), "the hand-broken claim no longer panics");
        }
        assert_eq!(drainers(&coalescer, honest.circuit_id()), 0);
        let verdict = verify_elsewhere(&coalescer, honest.clone()).recv_timeout(DEADLINE);
        assert_eq!(verdict.expect("the circuit is wedged"), Ok(()));
        assert_eq!(drainers(&coalescer, honest.circuit_id()), 0);
    }

    /// An honest claim that shares a batch with a kernel-panicking one is
    /// answered `Internal` — not left waiting, and not given a verdict it
    /// did not earn — and the circuit verifies the next claim as usual.
    #[test]
    fn batch_mates_of_a_panicking_claim_are_answered_internal() {
        let corpus = verdict_corpus::corpus();
        let honest = honest_claim(&corpus);
        let id = honest.circuit_id();
        let coalescer = coalescer_for(&corpus, 1);
        coalescer
            .verify(honest.clone())
            .expect("an honest claim verifies");
        let queue = Arc::clone(&coalescer.queues.lock().unwrap()[&id]);

        // take the one drainer slot, so the honest claim parks in the queue
        queue.state.lock().unwrap().drainers = 1;
        let parked = verify_elsewhere(&coalescer, honest.clone());
        while queue.state.lock().unwrap().pending.is_empty() {
            std::thread::yield_now();
        }
        // the slot's holder now drains a batch of two: the parked claim and
        // one that panics the kernel
        let (tx, doomed) = mpsc::channel();
        let claim = kernel_panicking_claim(&honest);
        queue
            .state
            .lock()
            .unwrap()
            .pending
            .push_back(Pending { claim, tx });
        let drainer = {
            let (coalescer, queue) = (Arc::clone(&coalescer), Arc::clone(&queue));
            std::thread::spawn(move || coalescer.drain(&queue))
        };
        assert!(drainer.join().is_err(), "the drainer survived the batch");

        let verdict = parked
            .recv_timeout(DEADLINE)
            .expect("the batch-mate is stranded");
        assert!(
            matches!(verdict, Err(ZkrownnError::Internal(_))),
            "{verdict:?}"
        );
        assert!(doomed.recv().is_err(), "the panicking claim got a verdict");
        assert_eq!(drainers(&coalescer, id), 0);
        coalescer
            .verify(honest)
            .expect("the circuit still verifies");
    }

    #[test]
    fn coalescer_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<Coalescer>();
    }
}
