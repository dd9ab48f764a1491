//! Criterion benches over the Table I circuits at reduced ("quick") scale —
//! statistically robust timings of the prover and verifier per circuit.
//! (Paper-scale single-shot measurements come from the `table1` binary; at
//! 10⁶ constraints per row, criterion's repeated sampling is impractical.)

use criterion::{criterion_group, criterion_main, Criterion};
use rand::SeedableRng;
use zkrownn_bench::{row_circuit, Scale};
use zkrownn_ff::Fr;
use zkrownn_groth16::{create_proof, generate_parameters, verify_proof_prepared};
use zkrownn_r1cs::{Circuit, ProvingSynthesizer};

/// A row's public inputs, from its proving synthesis.
fn publics(circuit: &impl Circuit<Fr>) -> Vec<Fr> {
    let mut cs = ProvingSynthesizer::new();
    circuit
        .synthesize(&mut cs)
        .expect("rows carry their witness");
    cs.instance_assignment()[1..].to_vec()
}

fn bench_rows(c: &mut Criterion) {
    // BER / ReLU / HardThresholding / Sigmoid are the cheap rows; the heavy
    // rows (matmult, conv3d, average2d, end-to-end) are still seconds-scale
    // even at quick size, so we bench their verifier only.
    for row in ["ber", "relu", "hardthreshold", "sigmoid"] {
        let circuit = row_circuit(row, Scale::Quick);
        let mut rng = rand::rngs::StdRng::seed_from_u64(1);
        let pk = generate_parameters(&circuit, &mut rng).unwrap();

        let mut group = c.benchmark_group(format!("table1/{row}"));
        group.sample_size(10);
        // cold: both syntheses, the context build and the proof
        group.bench_function("prove", |b| {
            b.iter(|| create_proof(&pk, &circuit, &mut rng).unwrap())
        });
        let proof = create_proof(&pk, &circuit, &mut rng).unwrap();
        let publics = publics(&circuit);
        let pvk = pk.vk.prepare();
        group.bench_function("verify", |b| {
            b.iter(|| verify_proof_prepared(&pvk, &proof, &publics).unwrap())
        });
        group.finish();
    }

    for row in ["matmult", "conv3d", "average2d", "mnist-mlp", "cifar-cnn"] {
        let circuit = row_circuit(row, Scale::Quick);
        let mut rng = rand::rngs::StdRng::seed_from_u64(2);
        let pk = generate_parameters(&circuit, &mut rng).unwrap();
        let proof = create_proof(&pk, &circuit, &mut rng).unwrap();
        let publics = publics(&circuit);
        let pvk = pk.vk.prepare();
        let mut group = c.benchmark_group(format!("table1/{row}"));
        group.sample_size(10);
        group.bench_function("verify", |b| {
            b.iter(|| verify_proof_prepared(&pvk, &proof, &publics).unwrap())
        });
        group.finish();
    }
}

criterion_group!(benches, bench_rows);
criterion_main!(benches);
