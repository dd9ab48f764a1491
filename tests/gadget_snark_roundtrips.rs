//! Groth16 prove/verify roundtrips for each standalone Table I circuit at
//! reduced sizes, plus property-based satisfiability checks of the gadget
//! semantics (the reduced-size analogue of the paper's per-circuit rows).

use proptest::prelude::*;
use rand::SeedableRng;
use zkrownn_ff::{Field, Fr, PrimeField};
use zkrownn_gadgets::average::{average2d_circuit, average_reference};
use zkrownn_gadgets::ber::ber_circuit;
use zkrownn_gadgets::conv::{conv3d_circuit, conv3d_reference, ConvShape};
use zkrownn_gadgets::matmul::{matmul_circuit, matmul_reference};
use zkrownn_gadgets::relu::relu_circuit;
use zkrownn_gadgets::sigmoid::{sigmoid, sigmoid_fixed_reference};
use zkrownn_gadgets::threshold::threshold_circuit;
use zkrownn_gadgets::{FixedConfig, Num};
use zkrownn_groth16::{create_proof_with_context_and_randomness, verify_proof, ProverContext};
use zkrownn_r1cs::{ConstraintSystem, ProvingSynthesizer, SetupSynthesizer};

/// One gadget circuit synthesized into both drivers: `setup` lowers it
/// into the matrices the key is made from, `cs` carries the assignment.
fn drivers() -> (SetupSynthesizer<Fr>, ProvingSynthesizer<Fr>) {
    (SetupSynthesizer::new(), ProvingSynthesizer::new())
}

fn prove_and_verify(setup: SetupSynthesizer<Fr>, cs: &ProvingSynthesizer<Fr>, seed: u64) {
    assert!(cs.is_satisfied().is_ok());
    let ctx = ProverContext::new(setup.into_parts().0);
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    let pk = ctx.generate(&mut rng);
    let (r, s) = (Fr::random(&mut rng), Fr::random(&mut rng));
    let proof = create_proof_with_context_and_randomness(&pk, &ctx, &cs.full_assignment(), r, s);
    let inputs: Vec<Fr> = cs.instance_assignment()[1..].to_vec();
    verify_proof(&pk.vk, &proof, &inputs).expect("valid gadget proof");
    assert_eq!(proof.to_bytes().len(), 128);
}

#[test]
fn matmult_snark_roundtrip() {
    let (mut setup, mut cs) = drivers();
    let a: Vec<i128> = (0..16).map(|i| i - 8).collect();
    let b: Vec<i128> = (0..16).map(|i| 2 * i - 16).collect();
    matmul_circuit(&a, &b, 4, 4, 4, 8, &mut setup).unwrap();
    let got = matmul_circuit(&a, &b, 4, 4, 4, 8, &mut cs).unwrap();
    assert_eq!(got, matmul_reference(&a, &b, 4, 4, 4));
    prove_and_verify(setup, &cs, 331);
}

#[test]
fn conv3d_snark_roundtrip() {
    let shape = ConvShape {
        in_channels: 2,
        height: 6,
        width: 6,
        out_channels: 2,
        kernel: 3,
        stride: 2,
    };
    let (mut setup, mut cs) = drivers();
    let input: Vec<i128> = (0..shape.in_len() as i128).map(|i| i % 11 - 5).collect();
    let kernels: Vec<i128> = (0..shape.kernel_len() as i128).map(|i| i % 7 - 3).collect();
    conv3d_circuit(&input, &kernels, &shape, 8, &mut setup).unwrap();
    let got = conv3d_circuit(&input, &kernels, &shape, 8, &mut cs).unwrap();
    assert_eq!(got, conv3d_reference(&input, &kernels, &shape));
    prove_and_verify(setup, &cs, 332);
}

#[test]
fn relu_snark_roundtrip() {
    let (mut setup, mut cs) = drivers();
    let inputs: Vec<i128> = (-8..8).collect();
    relu_circuit(&inputs, 16, &mut setup).unwrap();
    relu_circuit(&inputs, 16, &mut cs).unwrap();
    prove_and_verify(setup, &cs, 333);
}

#[test]
fn average_snark_roundtrip() {
    let (mut setup, mut cs) = drivers();
    let entries: Vec<i128> = (0..24).map(|i| i * 3 - 30).collect();
    average2d_circuit(&entries, 6, 4, 10, &mut setup).unwrap();
    let got = average2d_circuit(&entries, 6, 4, 10, &mut cs).unwrap();
    assert_eq!(got, average_reference(&entries, 6, 4));
    prove_and_verify(setup, &cs, 334);
}

/// Sigmoid over each fixed-point input, every output exposed.
fn sigmoid_outputs<CS: ConstraintSystem<Fr>>(
    xs: &[i128],
    cfg: &FixedConfig,
    cs: &mut CS,
) -> Vec<Num> {
    xs.iter()
        .map(|&xi| {
            let num = Num::alloc_witness(cs, || Ok(Fr::from_i128(xi)), cfg.value_bits()).unwrap();
            let out = sigmoid(&num, cfg, cs).unwrap();
            out.expose_as_output(cs).unwrap();
            out
        })
        .collect()
}

#[test]
fn sigmoid_snark_roundtrip() {
    let cfg = FixedConfig::default();
    let xs = [-2.0f64, 0.0, 1.5].map(|x| cfg.encode(x));
    let (mut setup, mut cs) = drivers();
    sigmoid_outputs(&xs, &cfg, &mut setup);
    for (out, xi) in sigmoid_outputs(&xs, &cfg, &mut cs).iter().zip(xs) {
        assert_eq!(out.value_i128(), sigmoid_fixed_reference(xi, &cfg));
    }
    prove_and_verify(setup, &cs, 335);
}

#[test]
fn threshold_snark_roundtrip() {
    let (mut setup, mut cs) = drivers();
    let inputs: Vec<i128> = (0..16).map(|i| i * 5 - 40).collect();
    threshold_circuit(&inputs, 0, 10, &mut setup).unwrap();
    threshold_circuit(&inputs, 0, 10, &mut cs).unwrap();
    prove_and_verify(setup, &cs, 336);
}

#[test]
fn ber_snark_roundtrip() {
    let (mut setup, mut cs) = drivers();
    let wm: Vec<bool> = (0..32).map(|i| i % 3 == 0).collect();
    let mut ex = wm.clone();
    ex[5] = !ex[5];
    ber_circuit(&wm, &ex, 1, &mut setup).unwrap();
    assert!(ber_circuit(&wm, &ex, 1, &mut cs).unwrap());
    prove_and_verify(setup, &cs, 337);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn prop_relu_circuit_matches_max(vals in prop::collection::vec(-1000i128..1000, 1..20)) {
        let mut cs = ProvingSynthesizer::<Fr>::new();
        let outs = relu_circuit(&vals, 12, &mut cs).unwrap();
        prop_assert!(cs.is_satisfied().is_ok());
        for (o, v) in outs.iter().zip(&vals) {
            prop_assert_eq!(*o, (*v).max(0));
        }
    }

    #[test]
    fn prop_threshold_is_indicator(vals in prop::collection::vec(-500i128..500, 1..20), beta in -100i128..100) {
        let mut cs = ProvingSynthesizer::<Fr>::new();
        let outs = threshold_circuit(&vals, beta, 11, &mut cs).unwrap();
        prop_assert!(cs.is_satisfied().is_ok());
        for (o, v) in outs.iter().zip(&vals) {
            prop_assert_eq!(*o, *v >= beta);
        }
    }

    #[test]
    fn prop_matmul_circuit_matches_reference(
        a in prop::collection::vec(-50i128..50, 6),
        b in prop::collection::vec(-50i128..50, 6),
    ) {
        let mut cs = ProvingSynthesizer::<Fr>::new();
        let got = matmul_circuit(&a, &b, 2, 3, 2, 7, &mut cs).unwrap();
        prop_assert!(cs.is_satisfied().is_ok());
        prop_assert_eq!(got, matmul_reference(&a, &b, 2, 3, 2));
    }

    #[test]
    fn prop_ber_circuit_counts_flips(bits in prop::collection::vec(any::<bool>(), 8..40), theta in 0u64..8) {
        let mut flipped = bits.clone();
        let k = bits.len() / 3;
        for b in flipped.iter_mut().take(k) { *b = !*b; }
        let mut cs = ProvingSynthesizer::<Fr>::new();
        let ok = ber_circuit(&bits, &flipped, theta, &mut cs).unwrap();
        prop_assert!(cs.is_satisfied().is_ok());
        prop_assert_eq!(ok, k as u64 <= theta);
    }

    #[test]
    fn prop_sigmoid_circuit_matches_fixed_reference(x in -6.0f64..6.0) {
        let cfg = FixedConfig::default();
        let xi = cfg.encode(x);
        let mut cs = ProvingSynthesizer::<Fr>::new();
        let num = Num::alloc_witness(&mut cs, || Ok(Fr::from_i128(xi)), cfg.value_bits()).unwrap();
        let out = sigmoid(&num, &cfg, &mut cs).unwrap();
        prop_assert!(cs.is_satisfied().is_ok());
        prop_assert_eq!(out.value_i128(), sigmoid_fixed_reference(xi, &cfg));
    }
}
