//! Every Table I circuit as a standalone zkSNARK — "each circuit can also
//! be used in a standalone zkSNARK due to our modular design approach"
//! (§III-B). Small instances of all seven gadget circuits are proven and
//! verified in sequence.
//!
//! ```text
//! cargo run --release --example standalone_circuits
//! ```

use rand::SeedableRng;
use std::time::Instant;
use zkrownn_ff::{Field, Fr, PrimeField};
use zkrownn_gadgets::average::average2d_circuit;
use zkrownn_gadgets::ber::ber_circuit;
use zkrownn_gadgets::conv::{conv3d_circuit, ConvShape};
use zkrownn_gadgets::matmul::matmul_circuit;
use zkrownn_gadgets::relu::relu_circuit;
use zkrownn_gadgets::sigmoid::{sigmoid, sigmoid_fixed_reference};
use zkrownn_gadgets::threshold::threshold_circuit;
use zkrownn_gadgets::{FixedConfig, Num};
use zkrownn_groth16::{
    create_proof_with_context_and_randomness, verify_proof_prepared, ProverContext,
};
use zkrownn_r1cs::{ProvingSynthesizer, SetupSynthesizer};

/// One circuit, synthesized into both drivers: the setup driver lowers it
/// into the matrices the key is made from (no value closure evaluated), the
/// proving driver carries the assignment and checks each row as it goes.
fn drivers() -> (SetupSynthesizer<Fr>, ProvingSynthesizer<Fr>) {
    (SetupSynthesizer::new(), ProvingSynthesizer::new())
}

fn prove_and_verify(name: &str, setup: SetupSynthesizer<Fr>, cs: &ProvingSynthesizer<Fr>) {
    let mut rng = rand::rngs::StdRng::seed_from_u64(0xc0ffee);
    assert!(cs.is_satisfied().is_ok());
    let t = Instant::now();
    let ctx = ProverContext::new(setup.into_parts().0);
    let pk = ctx.generate(&mut rng);
    let setup = t.elapsed();
    let t = Instant::now();
    let (r, s) = (Fr::random(&mut rng), Fr::random(&mut rng));
    let proof = create_proof_with_context_and_randomness(&pk, &ctx, &cs.full_assignment(), r, s);
    let prove = t.elapsed();
    let publics: Vec<Fr> = cs.instance_assignment()[1..].to_vec();
    // round-trip the proof through its 128-byte wire form, as a standalone
    // deployment would — decoding re-validates all three points
    let proof = zkrownn_groth16::Proof::from_bytes(&proof.to_bytes()).expect("proof decodes");
    let pvk = pk.vk.prepare();
    let t = Instant::now();
    verify_proof_prepared(&pvk, &proof, &publics).expect("valid proof");
    println!(
        "{name:<18} {:>7} constraints | setup {setup:>8.2?} | prove {prove:>8.2?} | verify {:>7.2?} | proof {} B",
        cs.num_constraints(),
        t.elapsed(),
        proof.to_bytes().len()
    );
}

fn main() {
    println!("standalone zkSNARKs for each ZKROWNN circuit (reduced sizes)\n");

    // zkMatMult: private 8×8 matrices, public product
    let (mut setup, mut cs) = drivers();
    let a: Vec<i128> = (0..64).map(|i| i % 13 - 6).collect();
    let b: Vec<i128> = (0..64).map(|i| i % 11 - 5).collect();
    matmul_circuit(&a, &b, 8, 8, 8, 8, &mut setup).unwrap();
    matmul_circuit(&a, &b, 8, 8, 8, 8, &mut cs).unwrap();
    prove_and_verify("zkMatMult", setup, &cs);

    // zkConv3D: 2×8×8 input, 3 kernels of 3×3, stride 2
    let shape = ConvShape {
        in_channels: 2,
        height: 8,
        width: 8,
        out_channels: 3,
        kernel: 3,
        stride: 2,
    };
    let (mut setup, mut cs) = drivers();
    let input: Vec<i128> = (0..shape.in_len() as i128).map(|i| i % 9 - 4).collect();
    let kernels: Vec<i128> = (0..shape.kernel_len() as i128).map(|i| i % 7 - 3).collect();
    conv3d_circuit(&input, &kernels, &shape, 8, &mut setup).unwrap();
    conv3d_circuit(&input, &kernels, &shape, 8, &mut cs).unwrap();
    prove_and_verify("zkConv3D", setup, &cs);

    // zkReLU over 32 values
    let (mut setup, mut cs) = drivers();
    let vals: Vec<i128> = (-16..16).collect();
    relu_circuit(&vals, 8, &mut setup).unwrap();
    relu_circuit(&vals, 8, &mut cs).unwrap();
    prove_and_verify("zkReLU", setup, &cs);

    // zkAverage over an 8×8 matrix
    let (mut setup, mut cs) = drivers();
    let entries: Vec<i128> = (0..64).map(|i| i * 3 - 90).collect();
    average2d_circuit(&entries, 8, 8, 10, &mut setup).unwrap();
    average2d_circuit(&entries, 8, 8, 10, &mut cs).unwrap();
    prove_and_verify("zkAverage2D", setup, &cs);

    // zkSigmoid over 8 fixed-point values
    let cfg = FixedConfig::default();
    let (mut setup, mut cs) = drivers();
    for i in 0..8 {
        let x = cfg.encode(i as f64 / 2.0 - 2.0);
        let n = Num::alloc_witness(&mut setup, || unreachable!(), cfg.value_bits()).unwrap();
        let out = sigmoid(&n, &cfg, &mut setup).unwrap();
        out.expose_as_output(&mut setup).unwrap();
        let n = Num::alloc_witness(&mut cs, || Ok(Fr::from_i128(x)), cfg.value_bits()).unwrap();
        let out = sigmoid(&n, &cfg, &mut cs).unwrap();
        assert_eq!(out.value_i128(), sigmoid_fixed_reference(x, &cfg));
        out.expose_as_output(&mut cs).unwrap();
    }
    prove_and_verify("zkSigmoid", setup, &cs);

    // zkHardThresholding at 0.5
    let (mut setup, mut cs) = drivers();
    let vals: Vec<i128> = (0..32).map(|i| i * 4096 - 65536).collect();
    threshold_circuit(&vals, 1 << 15, 18, &mut setup).unwrap();
    threshold_circuit(&vals, 1 << 15, 18, &mut cs).unwrap();
    prove_and_verify("zkHardThreshold", setup, &cs);

    // zkBER over 32-bit signatures, θ = 1 flipped bit
    let (mut setup, mut cs) = drivers();
    let wm: Vec<bool> = (0..32).map(|i| i % 2 == 0).collect();
    let mut extracted = wm.clone();
    extracted[7] = !extracted[7];
    ber_circuit(&wm, &extracted, 1, &mut setup).unwrap();
    let ok = ber_circuit(&wm, &extracted, 1, &mut cs).unwrap();
    assert!(ok);
    prove_and_verify("zkBER", setup, &cs);

    println!("\nall seven circuits proven and verified ✔");
}
