//! Quickstart: the complete ZKROWNN workflow on a tiny model, in under a
//! minute — including the cross-party artifact exchange: the claim travels
//! as bytes and is verified by a party that never saw the prover's memory.
//!
//! ```text
//! cargo run --release --example quickstart
//! ```

use rand::SeedableRng;
use std::time::Instant;
use zkrownn::benchmarks::spec_from_keys;
use zkrownn::{Artifact, Authority, KeyRegistry, SignedClaim};
use zkrownn_deepsigns::{embed, extract, generate_keys, EmbedConfig, KeyGenConfig};
use zkrownn_gadgets::FixedConfig;
use zkrownn_groth16::VerifyingKey;
use zkrownn_nn::{generate_gmm, Dense, GmmConfig, Layer, Network};

fn main() {
    let mut rng = rand::rngs::StdRng::seed_from_u64(42);

    // 1. The model owner trains a network ---------------------------------
    println!("[1/5] training a small classifier …");
    let gmm = GmmConfig {
        input_shape: vec![20],
        num_classes: 4,
        mean_scale: 1.0,
        noise_std: 0.3,
    };
    let data = generate_gmm(&gmm, 160, &mut rng);
    let mut net = Network::new(vec![
        Layer::Dense(Dense::new(20, 32, &mut rng)),
        Layer::ReLU,
        Layer::Dense(Dense::new(32, 4, &mut rng)),
    ]);
    net.train(&data.xs, &data.ys, 6, 0.05);
    println!(
        "      accuracy: {:.1}%",
        100.0 * net.accuracy(&data.xs, &data.ys)
    );

    // 2. … embeds a DeepSigns watermark -----------------------------------
    println!("[2/5] embedding a 16-bit DeepSigns watermark …");
    let keys = generate_keys(
        &KeyGenConfig {
            layer: 1, // first hidden layer activations
            activation_dim: 32,
            signature_bits: 16,
            num_triggers: 4,
            projection_std: 1.0,
        },
        &data,
        &mut rng,
    );
    let report = embed(&mut net, &keys, &data.xs, &data.ys, &EmbedConfig::default());
    let (_, ber) = extract(&net, &keys);
    println!(
        "      post-embedding BER: {ber:.3} (wm loss {:.4}), accuracy: {:.1}%",
        report.wm_loss,
        100.0 * net.accuracy(&data.xs, &data.ys)
    );

    // 3. The authority runs the one-time setup and deals out the kits ------
    println!("[3/5] trusted setup — Authority::setup hands out the role kits …");
    let spec = spec_from_keys(&net, &keys, false, 1, &FixedConfig::default());
    let built = spec.build().expect("witnessed synthesis");
    println!(
        "      circuit {}: {} constraints, {} public inputs, {} witness vars",
        spec.circuit_id().short(),
        built.cs.num_constraints(),
        built.cs.num_instance_variables() - 1,
        built.cs.num_witness_variables()
    );
    let t = Instant::now();
    let (prover, verifier) = Authority::setup(&spec, &mut rng);
    println!(
        "      setup took {:.2?}; PK {:.2} MB, VK {:.2} KB",
        t.elapsed(),
        prover.proving_key().serialized_size() as f64 / 1e6,
        verifier.verifying_key().serialized_size() as f64 / 1e3
    );

    // 4. The owner proves ownership and ships the claim as bytes ----------
    println!("[4/5] generating the zero-knowledge ownership claim …");
    let t = Instant::now();
    let claim = prover.prove(&mut rng).expect("honest claim");
    let claim_wire = claim.to_bytes();
    let vk_wire = Artifact::to_bytes(verifier.verifying_key());
    println!(
        "      proved in {:.2?}; claim is {} bytes on the wire \
         ({}-byte Groth16 proof inside); verdict: {}",
        t.elapsed(),
        claim_wire.len(),
        claim.proof.proof.to_bytes().len(),
        claim.verdict()
    );

    // 5. A verification service reconstructs everything from bytes ---------
    println!("[5/5] third-party verification from wire bytes only …");
    let received = SignedClaim::from_bytes(&claim_wire).expect("claim decodes");
    let received_vk = <VerifyingKey as Artifact>::from_bytes(&vk_wire).expect("vk decodes");
    let registry = KeyRegistry::new();
    registry.register(received.circuit_id(), &received_vk);
    let t = Instant::now();
    registry.verify(&received).expect("verification succeeds");
    println!(
        "      verified in {:.2?} — ownership established ✔ \
         (key prepared {} time)",
        t.elapsed(),
        registry.preparations()
    );

    // and a negative control: a claim re-targeted at a different model must
    // fail — the weights are public inputs, so the pairing check breaks
    let mut other = received.clone();
    if let zkrownn::QuantLayer::Dense { w, .. } = &mut other.statement.model.layers[0] {
        w[0] += 1;
    }
    assert!(registry.verify(&other).is_err());
    println!("      (control: claim rejected against a different model ✔)");
}
