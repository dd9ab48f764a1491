//! Wire-format properties: every artifact round-trips bit-exactly, sizes
//! are self-consistent, and *any* single corrupted byte is rejected (or, at
//! minimum, lands in a different circuit).

use proptest::prelude::*;
use rand::{Rng, SeedableRng};
use zkrownn::{
    Artifact, ArtifactKind, CircuitId, OwnershipProof, OwnershipStatement, QuantLayer,
    QuantizedModel, SignedClaim, WireError,
};
use zkrownn_curves::{G1Affine, G1Projective, G2Affine, G2Projective};
use zkrownn_ff::{Field, Fr};
use zkrownn_gadgets::conv::ConvShape;
use zkrownn_gadgets::FixedConfig;
use zkrownn_groth16::{Proof, ProvingKey, VerifyingKey};

fn g1(s: u64) -> G1Affine {
    G1Projective::generator()
        .mul_scalar(Fr::from_u64(s))
        .into_affine()
}

fn g2(s: u64) -> G2Affine {
    G2Projective::generator()
        .mul_scalar(Fr::from_u64(s))
        .into_affine()
}

/// A dense-stack statement with randomized shape and parameters.
fn arb_statement() -> impl Strategy<Value = OwnershipStatement> {
    (1usize..4, 1usize..4, 1usize..5, 1usize..4, any::<u64>()).prop_map(
        |(in_dim, out_dim, signature_bits, num_triggers, seed)| {
            let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
            let cfg = FixedConfig::default();
            let mut param = |n: usize| -> Vec<i128> {
                (0..n)
                    .map(|_| rng.gen_range(-1_000_000i64..1_000_000) as i128)
                    .collect()
            };
            OwnershipStatement {
                model: QuantizedModel {
                    layers: vec![
                        QuantLayer::Dense {
                            in_dim,
                            out_dim,
                            w: param(in_dim * out_dim),
                            b: param(out_dim),
                        },
                        QuantLayer::ReLU,
                    ],
                    input_len: in_dim,
                    cfg,
                },
                num_triggers,
                signature_bits,
                max_errors: rng.gen_range(0..=signature_bits as u64),
                fold_average: rng.gen(),
                cfg,
            }
        },
    )
}

/// A statement whose fields were drawn with little regard for each other:
/// dimensions 0–6, any layer kinds in any order, fixed-point fields 0–40.
/// Parameter vectors are the size their layer's shape says (the wire
/// format cannot express anything else). Half the layers are made to fit
/// the one before and half the configurations are the default, so that
/// well-formed statements turn up too.
fn arb_unchecked_statement() -> impl Strategy<Value = OwnershipStatement> {
    any::<u64>().prop_map(|seed| {
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let input_len = rng.gen_range(0usize..=6);
        let mut fits = Some(input_len); // what the next layer should take
        let mut layers = Vec::new();
        for _ in 0..rng.gen_range(0..=3) {
            let fit = fits.filter(|_| rng.gen());
            let dim = |rng: &mut rand::rngs::StdRng| rng.gen_range(0usize..=6);
            // a volume c·h·w that is `len`, when asked to fit
            let volume = |rng: &mut rand::rngs::StdRng| match fit {
                Some(len) if len % 2 == 0 && rng.gen() => (2, len / 2, 1),
                Some(len) => (1, 1, len),
                None => (dim(rng) % 3, dim(rng), dim(rng)),
            };
            let layer = match rng.gen_range(0..5) {
                0 => {
                    let (in_dim, out_dim) = (fit.unwrap_or_else(|| dim(&mut rng)), dim(&mut rng));
                    QuantLayer::Dense {
                        in_dim,
                        out_dim,
                        w: vec![1; in_dim * out_dim],
                        b: vec![1; out_dim],
                    }
                }
                1 => QuantLayer::ReLU,
                2 => QuantLayer::Identity,
                3 => {
                    let (channels, height, width) = volume(&mut rng);
                    QuantLayer::MaxPool {
                        channels,
                        height,
                        width,
                        size: rng.gen_range(0..=2),
                        stride: rng.gen_range(0..=2),
                    }
                }
                _ => {
                    let (in_channels, height, width) = volume(&mut rng);
                    let shape = ConvShape {
                        in_channels,
                        height,
                        width,
                        out_channels: rng.gen_range(0..=2),
                        kernel: rng.gen_range(0..=2),
                        stride: rng.gen_range(0..=2),
                    };
                    QuantLayer::Conv {
                        shape,
                        w: vec![1; shape.out_channels * in_channels * shape.kernel * shape.kernel],
                        b: vec![1; shape.out_channels],
                    }
                }
            };
            fits = fits.and_then(|len| layer.checked_out_len(len));
            layers.push(layer);
        }
        let cfg = if rng.gen() {
            FixedConfig::default()
        } else {
            FixedConfig {
                frac_bits: rng.gen_range(0..=40),
                sigmoid_frac_bits: rng.gen_range(0..=40),
                int_bits: rng.gen_range(0..=40),
            }
        };
        OwnershipStatement {
            model: QuantizedModel {
                layers,
                input_len,
                cfg,
            },
            num_triggers: rng.gen_range(0..=3),
            signature_bits: rng.gen_range(0..=4),
            max_errors: rng.gen_range(0..=5),
            fold_average: rng.gen(),
            cfg,
        }
    })
}

fn arb_proof() -> impl Strategy<Value = Proof> {
    (any::<u64>(), any::<u64>(), any::<u64>()).prop_map(|(a, b, c)| Proof {
        a: g1(a),
        b: g2(b),
        c: g1(c),
    })
}

fn arb_vk() -> impl Strategy<Value = VerifyingKey> {
    (any::<u64>(), 1usize..5).prop_map(|(seed, n_abc)| {
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        VerifyingKey {
            alpha_g1: g1(rng.gen()),
            beta_g2: g2(rng.gen()),
            gamma_g2: g2(rng.gen()),
            delta_g2: g2(rng.gen()),
            gamma_abc_g1: (0..n_abc).map(|_| g1(rng.gen())).collect(),
        }
    })
}

fn arb_pk() -> impl Strategy<Value = ProvingKey> {
    (arb_vk(), any::<u64>(), 0usize..3).prop_map(|(vk, seed, n)| {
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let mut g1s = |k: usize| (0..k).map(|_| g1(rng.gen())).collect::<Vec<_>>();
        ProvingKey {
            beta_g1: g1(3),
            delta_g1: g1(4),
            a_query: g1s(n + 1),
            b_g1_query: g1s(n),
            h_query: g1s(n + 2),
            l_query: g1s(n),
            b_g2_query: vec![g2(9); n],
            vk,
        }
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn statement_roundtrips(stmt in arb_statement()) {
        let wire = stmt.to_bytes();
        prop_assert_eq!(wire.len(), Artifact::serialized_size(&stmt));
        let back = OwnershipStatement::from_bytes(&wire).unwrap();
        prop_assert_eq!(&back, &stmt);
        prop_assert_eq!(back.circuit_id(), stmt.circuit_id());
        prop_assert_eq!(back.content_digest(), stmt.content_digest());
    }

    #[test]
    fn ownership_proof_roundtrips(proof in arb_proof(), stmt in arb_statement(), verdict in any::<bool>()) {
        let artifact = OwnershipProof {
            proof,
            verdict,
            circuit_id: stmt.circuit_id(),
        };
        let wire = artifact.to_bytes();
        prop_assert_eq!(wire.len(), Artifact::serialized_size(&artifact));
        prop_assert_eq!(OwnershipProof::from_bytes(&wire).unwrap(), artifact);
    }

    #[test]
    fn verifying_key_roundtrips(vk in arb_vk()) {
        let wire = Artifact::to_bytes(&vk);
        prop_assert_eq!(wire.len(), Artifact::serialized_size(&vk));
        prop_assert_eq!(<VerifyingKey as Artifact>::from_bytes(&wire).unwrap(), vk);
    }

    #[test]
    fn proving_key_roundtrips(pk in arb_pk()) {
        let wire = Artifact::to_bytes(&pk);
        prop_assert_eq!(wire.len(), Artifact::serialized_size(&pk));
        prop_assert_eq!(<ProvingKey as Artifact>::from_bytes(&wire).unwrap(), pk);
    }

    #[test]
    fn signed_claim_roundtrips(stmt in arb_statement(), proof in arb_proof()) {
        let claim = SignedClaim {
            proof: OwnershipProof {
                proof,
                verdict: true,
                circuit_id: stmt.circuit_id(),
            },
            statement: stmt,
        };
        let wire = claim.to_bytes();
        prop_assert_eq!(wire.len(), Artifact::serialized_size(&claim));
        prop_assert_eq!(SignedClaim::from_bytes(&wire).unwrap(), claim);
    }
}

fn fixture_statement() -> OwnershipStatement {
    let cfg = FixedConfig::default();
    OwnershipStatement {
        model: QuantizedModel {
            layers: vec![
                QuantLayer::Dense {
                    in_dim: 3,
                    out_dim: 2,
                    w: vec![7, -9, 11, -13, 17, -19],
                    b: vec![23, -29],
                },
                QuantLayer::ReLU,
            ],
            input_len: 3,
            cfg,
        },
        num_triggers: 2,
        signature_bits: 4,
        max_errors: 1,
        fold_average: false,
        cfg,
    }
}

fn fixture_proof() -> OwnershipProof {
    OwnershipProof {
        proof: Proof {
            a: g1(5),
            b: g2(7),
            c: g1(9),
        },
        verdict: true,
        circuit_id: fixture_statement().circuit_id(),
    }
}

/// Asserts that flipping any single byte of `wire` is either rejected
/// outright or decodes to an artifact on a *different* circuit.
fn assert_every_byte_flip_caught<A, F>(wire: &[u8], original_circuit: CircuitId, circuit_of: F)
where
    A: Artifact,
    F: Fn(&A) -> CircuitId,
{
    for i in 0..wire.len() {
        for flip in [0x01u8, 0x80] {
            let mut corrupt = wire.to_vec();
            corrupt[i] ^= flip;
            match A::from_bytes(&corrupt) {
                Err(_) => {}
                Ok(decoded) => assert_ne!(
                    circuit_of(&decoded),
                    original_circuit,
                    "byte {i} flip {flip:#04x} slipped through undetected"
                ),
            }
        }
    }
}

#[test]
fn every_single_byte_flip_in_a_statement_is_caught() {
    let stmt = fixture_statement();
    let id = stmt.circuit_id();
    assert_every_byte_flip_caught::<OwnershipStatement, _>(&stmt.to_bytes(), id, |s| {
        s.circuit_id()
    });
}

#[test]
fn every_single_byte_flip_in_a_proof_is_caught() {
    let proof = fixture_proof();
    let id = proof.circuit_id;
    assert_every_byte_flip_caught::<OwnershipProof, _>(&proof.to_bytes(), id, |p| p.circuit_id);
}

#[test]
fn every_single_byte_flip_in_a_claim_is_caught() {
    let claim = SignedClaim {
        statement: fixture_statement(),
        proof: fixture_proof(),
    };
    let id = claim.circuit_id();
    assert_every_byte_flip_caught::<SignedClaim, _>(&claim.to_bytes(), id, |c| c.circuit_id());
}

#[test]
fn envelope_errors_are_specific() {
    let stmt = fixture_statement();
    let wire = stmt.to_bytes();

    // truncation below the envelope minimum
    assert!(matches!(
        OwnershipStatement::from_bytes(&wire[..10]),
        Err(WireError::Truncated { .. })
    ));

    // bad magic
    let mut bad = wire.clone();
    bad[0] = b'X';
    assert!(matches!(
        OwnershipStatement::from_bytes(&bad),
        Err(WireError::BadMagic(_))
    ));

    // decoding a statement as a proof names both kinds
    assert_eq!(
        OwnershipProof::from_bytes(&wire),
        Err(WireError::WrongKind {
            expected: ArtifactKind::Proof,
            got: ArtifactKind::Statement,
        })
    );

    // unknown kind tag
    let mut unknown = wire.clone();
    unknown[4] = 250;
    assert_eq!(
        OwnershipStatement::from_bytes(&unknown),
        Err(WireError::UnknownKind(250))
    );

    // future format version
    let mut future = wire.clone();
    future[5] = 99;
    assert!(matches!(
        OwnershipStatement::from_bytes(&future),
        Err(WireError::UnsupportedVersion { got: 99, .. })
    ));

    // truncated buffer disagrees with the envelope's payload length
    assert!(matches!(
        OwnershipStatement::from_bytes(&wire[..wire.len() - 1]),
        Err(WireError::LengthMismatch { .. })
    ));

    // corrupted payload trips the checksum before layer decoding runs
    let mut corrupt = wire.clone();
    let mid = wire.len() / 2;
    corrupt[mid] ^= 0xff;
    assert_eq!(
        OwnershipStatement::from_bytes(&corrupt),
        Err(WireError::ChecksumMismatch)
    );
}

#[test]
fn circuit_id_depends_on_shape_not_parameters() {
    let a = fixture_statement();

    // same shape, different weights ⇒ same circuit (the weights are public
    // *inputs*, not circuit structure) but a different content digest
    let mut b = a.clone();
    if let QuantLayer::Dense { w, .. } = &mut b.model.layers[0] {
        w[0] += 1;
    }
    assert_eq!(a.circuit_id(), b.circuit_id());
    assert_ne!(a.content_digest(), b.content_digest());

    // any shape knob moves the circuit id
    for mutate in [
        (|s: &mut OwnershipStatement| s.max_errors += 1) as fn(&mut OwnershipStatement),
        |s| s.num_triggers += 1,
        |s| s.signature_bits += 1,
        |s| s.fold_average = !s.fold_average,
        |s| s.cfg.frac_bits += 1,
        |s| s.model.layers.push(QuantLayer::ReLU),
    ] {
        let mut c = a.clone();
        mutate(&mut c);
        assert_ne!(a.circuit_id(), c.circuit_id(), "shape change must rekey");
    }
}

#[test]
fn sha256_matches_known_vectors() {
    // FIPS 180-2 test vectors
    let empty = zkrownn::artifact::sha256(b"");
    assert_eq!(
        empty[..4],
        [0xe3, 0xb0, 0xc4, 0x42],
        "SHA-256 of the empty string"
    );
    let abc = zkrownn::artifact::sha256(b"abc");
    assert_eq!(
        abc,
        [
            0xba, 0x78, 0x16, 0xbf, 0x8f, 0x01, 0xcf, 0xea, 0x41, 0x41, 0x40, 0xde, 0x5d, 0xae,
            0x22, 0x23, 0xb0, 0x03, 0x61, 0xa3, 0x96, 0x17, 0x7a, 0x9c, 0xb4, 0x10, 0xff, 0x61,
            0xf2, 0x00, 0x15, 0xad
        ]
    );
    // multi-block message (> 64 bytes)
    let long =
        zkrownn::artifact::sha256(b"abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq");
    assert_eq!(long[..4], [0x24, 0x8d, 0x6a, 0x61]);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(400))]

    /// Decoding is the gate in front of the shape synthesis every verifier
    /// runs next (`circuit_id`), and that synthesis asserts its shape
    /// preconditions: whatever decodes must synthesize. Never a panic.
    #[test]
    fn a_statement_that_decodes_can_be_synthesized(stmt in arb_unchecked_statement()) {
        match OwnershipStatement::from_bytes(&stmt.to_bytes()) {
            Err(e) => prop_assert!(matches!(e, WireError::Malformed(_)), "{e:?}"),
            Ok(decoded) => {
                let id = std::panic::catch_unwind(|| decoded.circuit_id());
                prop_assert!(id.is_ok(), "decoded, then panicked in synthesis: {stmt:?}");
            }
        }
    }
}
