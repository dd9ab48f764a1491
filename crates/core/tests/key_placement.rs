//! Where the proving key lives must not show in what the owner ships:
//! for one spec and one seed, a kit over the in-memory key and kits over
//! the `.zkst` store (either read backend) emit byte-identical
//! [`SignedClaim`]s. Kernel-level identity is pinned in `zkrownn-store`;
//! this pins the layer users call, where an `(r, s)` draw-order slip or a
//! diverging setup path would otherwise go unseen.

use rand::SeedableRng;
use zkrownn::{
    Artifact, Authority, ExtractionSpec, MemoryBudget, QuantLayer, QuantizedModel, StoreBackend,
    StoredProverKit,
};
use zkrownn_gadgets::FixedConfig;

fn small_spec() -> ExtractionSpec {
    let cfg = FixedConfig::default();
    ExtractionSpec {
        model: QuantizedModel {
            layers: vec![
                QuantLayer::Dense {
                    in_dim: 3,
                    out_dim: 4,
                    w: (0..12)
                        .map(|i| cfg.encode(0.125 * (i as f64 - 5.0)))
                        .collect(),
                    b: vec![cfg.encode(0.25); 4],
                },
                QuantLayer::ReLU,
            ],
            input_len: 3,
            cfg,
        },
        triggers: vec![vec![cfg.encode(1.0); 3], vec![cfg.encode(-0.5); 3]],
        projection: (0..8)
            .map(|i| cfg.encode(0.25 * (i as f64 - 3.0)))
            .collect(),
        signature: vec![true, false],
        max_errors: 2,
        fold_average: false,
        cfg,
    }
}

#[test]
fn claims_do_not_depend_on_where_the_key_lives() {
    const SEED: u64 = 0x6b65_7973;
    let spec = small_spec();
    let dir = std::env::temp_dir().join(format!("zkrownn-key-placement-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();

    // the key in memory: setup and prove off one seeded stream
    let mut rng = rand::rngs::StdRng::seed_from_u64(SEED);
    let (prover, verifier) = Authority::setup(&spec, &mut rng);
    let expected = prover.prove(&mut rng).unwrap();
    verifier.verify(&expected).unwrap();

    for (i, backend) in [StoreBackend::Buffered, StoreBackend::Auto]
        .into_iter()
        .enumerate()
    {
        // the same stream again, the key going to disk at the smallest
        // budget and proved from there
        let path = dir.join(format!("key-{i}.zkst"));
        let budget = MemoryBudget::from_bytes(0);
        let mut rng = rand::rngs::StdRng::seed_from_u64(SEED);
        let stored_verifier =
            Authority::setup_statement_stored(&spec.statement(), &path, &mut rng, budget).unwrap();
        let kit = StoredProverKit::open_with(&path, spec.clone(), budget, backend).unwrap();
        let claim = kit.prove(&mut rng).unwrap();

        assert_eq!(
            Artifact::to_bytes(&claim),
            Artifact::to_bytes(&expected),
            "stored kit ({backend:?}) diverged from the in-memory kit"
        );
        assert_eq!(
            kit.store().load_proving_key().unwrap().to_bytes(),
            prover.proving_key().to_bytes()
        );
        stored_verifier.verify(&claim).unwrap();
    }
    std::fs::remove_dir_all(&dir).unwrap();
}
