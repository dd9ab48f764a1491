//! Workspace wiring smoke test: proves and verifies one tiny MLP ownership
//! proof end-to-end **through the meta-crate's re-exports only**, so a
//! broken crate graph (missing re-export, path-dependency typo, feature
//! mismatch) fails here before anything subtler does.

use rand::SeedableRng;
use zkrownn_repro::zkrownn::benchmarks::spec_from_keys;
use zkrownn_repro::zkrownn::{Artifact, Authority, KeyRegistry, SignedClaim};
use zkrownn_repro::zkrownn_deepsigns::{embed, extract, generate_keys, EmbedConfig, KeyGenConfig};
use zkrownn_repro::zkrownn_gadgets::FixedConfig;
use zkrownn_repro::zkrownn_nn::{generate_gmm, Dense, GmmConfig, Layer, Network};

#[test]
fn tiny_mlp_ownership_proof_roundtrip() {
    let mut rng = rand::rngs::StdRng::seed_from_u64(7);

    // Train a minimal classifier and embed a short watermark.
    let gmm = GmmConfig {
        input_shape: vec![8],
        num_classes: 3,
        mean_scale: 1.0,
        noise_std: 0.25,
    };
    let data = generate_gmm(&gmm, 90, &mut rng);
    let mut net = Network::new(vec![
        Layer::Dense(Dense::new(8, 12, &mut rng)),
        Layer::ReLU,
        Layer::Dense(Dense::new(12, 3, &mut rng)),
    ]);
    net.train(&data.xs, &data.ys, 4, 0.05);
    let keys = generate_keys(
        &KeyGenConfig {
            layer: 1,
            activation_dim: 12,
            signature_bits: 8,
            num_triggers: 3,
            projection_std: 1.0,
        },
        &data,
        &mut rng,
    );
    embed(&mut net, &keys, &data.xs, &data.ys, &EmbedConfig::default());
    let (_, ber) = extract(&net, &keys);
    assert!(ber < 0.5, "embedding should beat a coin flip (ber = {ber})");

    // Setup → prove → wire round-trip → verify through the meta-crate paths.
    let spec = spec_from_keys(&net, &keys, false, 1, &FixedConfig::default());
    let (prover, verifier) = Authority::setup(&spec, &mut rng);
    let claim = prover.prove(&mut rng).expect("honest prover succeeds");
    let received = SignedClaim::from_bytes(&claim.to_bytes()).expect("claim decodes");
    verifier.verify(&received).expect("claim verifies");
    let registry = KeyRegistry::new();
    registry.register_kit(&verifier);
    registry
        .verify(&received)
        .expect("registry verification agrees");

    // Negative control: the claim must not transfer to a tampered model.
    let mut tampered = received.clone();
    if let zkrownn_repro::zkrownn::QuantLayer::Dense { w, .. } =
        &mut tampered.statement.model.layers[0]
    {
        w[0] += 1;
    }
    assert!(verifier.verify(&tampered).is_err());
}
