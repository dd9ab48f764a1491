//! Acceptance test for the artifact-centric workflow: claims generated by
//! a `ProverKit` are serialized, shipped to a fresh process-equivalent
//! context (a new `KeyRegistry`, every artifact reconstructed from bytes
//! only), and verified via `verify_batch` — with pairing preparation run
//! exactly once for N ≥ 8 same-circuit claims.

use rand::SeedableRng;
use std::sync::atomic::{AtomicBool, Ordering};
use zkrownn::{
    Artifact, Authority, CircuitId, ExtractionSpec, KeyRegistry, ProverKit, QuantLayer,
    QuantizedModel, SignedClaim, ZkrownnError,
};
use zkrownn_gadgets::FixedConfig;
use zkrownn_groth16::VerifyingKey;

/// A tiny, deterministic extraction spec (no training needed). Projections
/// come out positive, so every extracted bit is 1: with `max_errors = 0`
/// the verdict is exactly "is the signature all-ones".
fn tiny_spec(signature: Vec<bool>) -> ExtractionSpec {
    let cfg = FixedConfig::default();
    let model = QuantizedModel {
        layers: vec![
            QuantLayer::Dense {
                in_dim: 2,
                out_dim: 2,
                w: vec![cfg.encode(0.5); 4],
                b: vec![0; 2],
            },
            QuantLayer::ReLU,
        ],
        input_len: 2,
        cfg,
    };
    ExtractionSpec {
        model,
        triggers: vec![vec![cfg.encode(1.0); 2]; 2],
        projection: vec![cfg.encode(0.25); 2 * signature.len()],
        signature,
        max_errors: 0,
        fold_average: false,
        cfg,
    }
}

#[test]
fn shipped_claims_verify_in_a_fresh_context_with_one_preparation() {
    const N: usize = 8;
    let mut rng = rand::rngs::StdRng::seed_from_u64(601);

    // ---- owner-side process: setup, prove N claims, serialize ----------
    let spec = tiny_spec(vec![true; 4]);
    let (prover, verifier) = Authority::setup(&spec, &mut rng);
    let claim_wires: Vec<Vec<u8>> = (0..N)
        .map(|_| prover.prove(&mut rng).expect("honest claim").to_bytes())
        .collect();
    let vk_wire = Artifact::to_bytes(verifier.verifying_key());
    let id_wire = *verifier.circuit_id().as_bytes();
    drop((prover, verifier, spec));

    // ---- verifier-side process: everything reconstructed from bytes ----
    let vk = <VerifyingKey as Artifact>::from_bytes(&vk_wire).expect("vk decodes");
    let claims: Vec<SignedClaim> = claim_wires
        .iter()
        .map(|w| SignedClaim::from_bytes(w).expect("claim decodes"))
        .collect();
    let registry = KeyRegistry::new();
    registry.register(CircuitId::from_bytes(id_wire), &vk);
    assert_eq!(registry.preparations(), 1);

    let results = registry.verify_batch(&claims, &mut rng);
    assert_eq!(results.len(), N);
    for (i, result) in results.iter().enumerate() {
        assert_eq!(*result, Ok(()), "claim {i} must verify");
    }
    // pairing preparation ran exactly once for all N same-circuit claims
    assert_eq!(registry.preparations(), 1);

    // re-registering the same circuit is a cache hit, not a new preparation
    assert!(!registry.register(claims[0].circuit_id(), &vk));
    assert_eq!(registry.preparations(), 1);
}

#[test]
fn batch_results_are_per_claim() {
    let mut rng = rand::rngs::StdRng::seed_from_u64(602);

    // one trusted setup for the circuit shape; two provers with different
    // (private) signatures share it
    let honest_spec = tiny_spec(vec![true; 4]);
    let (honest_prover, verifier) = Authority::setup(&honest_spec, &mut rng);
    let negative_prover = ProverKit::from_parts(
        honest_prover.proving_key().clone(),
        tiny_spec(vec![true, false, true, false]),
    );
    assert_eq!(honest_prover.circuit_id(), negative_prover.circuit_id());

    let good = honest_prover.prove(&mut rng).unwrap();
    assert!(good.verdict());
    let negative = negative_prover.prove(&mut rng).unwrap();
    assert!(!negative.verdict());

    // a tampered copy: valid points, wrong pairing equation
    let mut forged = good.clone();
    std::mem::swap(&mut forged.proof.proof.a, &mut forged.proof.proof.c);

    // and a claim aimed at a circuit nobody registered
    let mut stray = good.clone();
    stray.proof.circuit_id = CircuitId::from_bytes([0; 32]);

    let registry = KeyRegistry::new();
    registry.register_kit(&verifier);
    let claims = [good, negative, forged, stray];
    let results = registry.verify_batch(&claims, &mut rng);

    assert_eq!(results[0], Ok(()), "honest claim verifies");
    assert_eq!(
        results[1],
        Err(ZkrownnError::NegativeVerdict),
        "sound-but-negative claim is reported as such, not as a forgery"
    );
    assert!(
        matches!(results[2], Err(ZkrownnError::InvalidProof(_))),
        "forged claim is pinpointed inside the batch"
    );
    assert!(
        matches!(results[3], Err(ZkrownnError::UnknownCircuit(_))),
        "unregistered circuit is reported per claim"
    );
    // the batch path never re-prepared the key
    assert_eq!(registry.preparations(), 1);

    // single-claim verification agrees with the batch verdicts
    assert_eq!(registry.verify(&claims[0]), Ok(()));
    assert_eq!(
        registry.verify(&claims[1]),
        Err(ZkrownnError::NegativeVerdict)
    );
}

/// An rng that must never be asked for anything.
struct PanickingRng;

impl rand::RngCore for PanickingRng {
    fn next_u64(&mut self) -> u64 {
        panic!("an RLC coefficient was drawn")
    }
}

/// A batch of one *is* the single-claim path: it draws no RLC coefficient
/// (honest or forged), while two positives do fold into a combined check.
#[test]
fn a_batch_of_one_draws_no_randomness() {
    let mut rng = rand::rngs::StdRng::seed_from_u64(603);
    let (prover, verifier) = Authority::setup(&tiny_spec(vec![true; 4]), &mut rng);
    let honest = prover.prove(&mut rng).unwrap();
    let mut forged = honest.clone();
    std::mem::swap(&mut forged.proof.proof.a, &mut forged.proof.proof.c);

    let registry = KeyRegistry::new();
    registry.register_kit(&verifier);
    assert_eq!(
        registry.verify_batch(std::slice::from_ref(&honest), &mut PanickingRng),
        [Ok(())]
    );
    assert!(matches!(
        registry.verify_batch(&[forged], &mut PanickingRng)[..],
        [Err(ZkrownnError::InvalidProof(_))]
    ));

    let pair = [honest.clone(), honest];
    let drew = std::panic::catch_unwind(|| registry.verify_batch(&pair, &mut PanickingRng));
    assert!(drew.is_err(), "two positives must draw RLC coefficients");
    // the panic unwound through no lock: the registry is still usable
    assert_eq!(registry.verify(&pair[0]), Ok(()));
    assert_eq!(registry.preparations(), 1);
}

/// Registration is not blocked by verification (and vice versa): the lock
/// guards the key map only, never the pairing work.
#[test]
fn registration_proceeds_while_verification_is_in_flight() {
    let mut rng = rand::rngs::StdRng::seed_from_u64(604);
    let (prover, verifier) = Authority::setup(&tiny_spec(vec![true; 4]), &mut rng);
    let (_, second) = Authority::setup(&tiny_spec(vec![true; 5]), &mut rng);
    assert_ne!(verifier.circuit_id(), second.circuit_id());
    let claim = prover.prove(&mut rng).unwrap();

    let registry = KeyRegistry::new();
    assert!(registry.register_kit(&verifier));
    let stop = AtomicBool::new(false);
    let (verifying_tx, verifying_rx) = std::sync::mpsc::channel();
    let verdicts = std::thread::scope(|scope| {
        let verifying = scope.spawn(|| {
            let mut verdicts = Vec::new();
            while !stop.load(Ordering::Relaxed) {
                verdicts.push(registry.verify(&claim));
                let _ = verifying_tx.send(());
            }
            verdicts
        });
        // the loop is verifying back to back from here until `stop`, so
        // both registrations (a pairing precomputation each) run alongside
        // in-flight verifications of the first circuit
        verifying_rx.recv().expect("the verifier thread is running");
        assert!(!registry.register_kit(&verifier), "already registered");
        assert!(registry.register_kit(&second), "a new circuit");
        stop.store(true, Ordering::Relaxed);
        verifying.join().expect("verifier thread")
    });
    assert_eq!(registry.len(), 2);
    assert_eq!(registry.preparations(), 2);
    assert!(verdicts.iter().all(|v| *v == Ok(())));
}
