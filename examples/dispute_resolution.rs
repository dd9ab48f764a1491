//! A model-theft dispute, end to end — the legal-setting scenario that
//! motivates the paper (§I): proofs must be *non-interactive* and
//! *publicly verifiable* so an expert witness or court can check ownership
//! claims without learning the watermark secrets.
//!
//! Cast: **Olivia** (owner), **Mallory** (thief), **Vera** (arbiter).
//! Vera receives both parties' claims as wire bytes and settles the dispute
//! with one batch verification — the error taxonomy does the judging:
//! Olivia's claim verifies, Mallory's comes back `NegativeVerdict` (her
//! proof is sound, but it proves her "watermark" is *absent*).
//!
//! ```text
//! cargo run --release --example dispute_resolution
//! ```

use rand::SeedableRng;
use zkrownn::benchmarks::spec_from_keys;
use zkrownn::{Artifact, Authority, KeyRegistry, SignedClaim, ZkrownnError};
use zkrownn_deepsigns::attacks::{finetune, prune};
use zkrownn_deepsigns::{embed, extract, generate_keys, EmbedConfig, KeyGenConfig};
use zkrownn_gadgets::FixedConfig;
use zkrownn_nn::{generate_gmm, Dense, GmmConfig, Layer, Network};

fn main() {
    let mut rng = rand::rngs::StdRng::seed_from_u64(99);

    // --- Act 1: Olivia trains and watermarks her model -------------------
    println!("― Act 1 ― Olivia trains a model and embeds her watermark");
    let gmm = GmmConfig {
        input_shape: vec![20],
        num_classes: 4,
        mean_scale: 1.0,
        noise_std: 0.3,
    };
    let data = generate_gmm(&gmm, 160, &mut rng);
    let mut olivia_model = Network::new(vec![
        Layer::Dense(Dense::new(20, 32, &mut rng)),
        Layer::ReLU,
        Layer::Dense(Dense::new(32, 4, &mut rng)),
    ]);
    olivia_model.train(&data.xs, &data.ys, 6, 0.05);
    let olivia_keys = generate_keys(
        &KeyGenConfig {
            layer: 1,
            activation_dim: 32,
            signature_bits: 12,
            num_triggers: 6,
            projection_std: 1.0,
        },
        &data,
        &mut rng,
    );
    embed(
        &mut olivia_model,
        &olivia_keys,
        &data.xs,
        &data.ys,
        &EmbedConfig {
            lambda: 5.0,
            epochs: 30,
            lr: 0.01,
        },
    );
    let (_, ber) = extract(&olivia_model, &olivia_keys);
    println!("  watermark BER on her own model: {ber:.3}");

    // --- Act 2: Mallory steals and modifies the model --------------------
    println!("― Act 2 ― Mallory steals the model, fine-tunes it and prunes 15%");
    let mut stolen = olivia_model.clone();
    finetune(&mut stolen, &data.xs, &data.ys, 3, 0.01);
    prune(&mut stolen, 0.15);
    let (_, stolen_ber) = extract(&stolen, &olivia_keys);
    println!("  Olivia's watermark BER on the stolen model M': {stolen_ber:.3}");

    // --- Act 3: both parties file claims about M' ------------------------
    println!("― Act 3 ― both parties generate claims over M' and send Vera the bytes");
    let theta_errors = 2; // tolerate small attack damage
    let olivia_spec = spec_from_keys(
        &stolen,
        &olivia_keys,
        false,
        theta_errors,
        &FixedConfig::default(),
    );
    // one circuit shape ⇒ one setup: Mallory's counterclaim uses keys with
    // the same dimensions, so both claims land on the same CircuitId
    let (olivia_prover, verifier_kit) = Authority::setup(&olivia_spec, &mut rng);
    let olivia_claim = olivia_prover.prove(&mut rng).expect("Olivia's claim");
    println!(
        "  Olivia's claim: {} bytes, verdict = {}",
        olivia_claim.to_bytes().len(),
        olivia_claim.verdict()
    );

    // --- Act 4: Mallory counterclaims with made-up keys -------------------
    println!("― Act 4 ― Mallory counterclaims with keys she invents after the fact");
    let mallory_keys = generate_keys(
        &KeyGenConfig {
            layer: 1,
            activation_dim: 32,
            signature_bits: 12,
            num_triggers: 6,
            projection_std: 1.0,
        },
        &data,
        &mut rng,
    );
    let (_, mallory_ber) = extract(&stolen, &mallory_keys);
    println!("  Mallory's 'watermark' BER: {mallory_ber:.3} (random keys don't extract)");
    let mallory_spec = spec_from_keys(
        &stolen,
        &mallory_keys,
        false,
        theta_errors,
        &FixedConfig::default(),
    );
    assert_eq!(
        mallory_spec.circuit_id(),
        olivia_spec.circuit_id(),
        "same shape, same circuit"
    );
    let mallory_prover =
        zkrownn::ProverKit::from_parts(olivia_prover.proving_key().clone(), mallory_spec);
    let mallory_claim = mallory_prover.prove(&mut rng).expect("provable, verdict 0");
    println!(
        "  Mallory's claim: verdict = {} — the circuit is sound, she cannot lie",
        mallory_claim.verdict()
    );

    // --- Act 5: Vera batch-verifies both claims from wire bytes ----------
    println!("― Act 5 ― Vera reconstructs both claims from bytes and batch-verifies");
    let wires: Vec<Vec<u8>> = [&olivia_claim, &mallory_claim]
        .iter()
        .map(|c| c.to_bytes())
        .collect();
    let claims: Vec<SignedClaim> = wires
        .iter()
        .map(|w| SignedClaim::from_bytes(w).expect("claims decode"))
        .collect();
    // Vera first pins every claim to the model actually under dispute: a
    // cryptographically sound claim about some *other* model proves nothing
    // about M'. (The kit carries the disputed statement's digest.)
    let disputed = verifier_kit.expected_statement().expect("kit is bound");
    for claim in &claims {
        assert_eq!(
            claim.statement.content_digest(),
            disputed,
            "claim must be about the disputed model M'"
        );
    }
    let registry = KeyRegistry::new();
    registry.register_kit(&verifier_kit);
    let verdicts = registry.verify_batch(&claims, &mut rng);
    for (who, verdict) in ["Olivia", "Mallory"].iter().zip(&verdicts) {
        match verdict {
            Ok(()) => println!("  Vera: {who}'s claim VERIFIES — M' carries their watermark ✔"),
            Err(ZkrownnError::NegativeVerdict) => println!(
                "  Vera: {who}'s claim is sound but NEGATIVE — their watermark is \
                 not in M' ✘"
            ),
            Err(e) => println!("  Vera: {who}'s claim rejected ({e})"),
        }
    }
    assert!(verdicts[0].is_ok());
    assert_eq!(verdicts[1], Err(ZkrownnError::NegativeVerdict));
    println!("  dispute resolved for Olivia ✔");
}
