//! Ablation benches for the design choices called out in DESIGN.md:
//!
//! * `scaling/*` — prover cost vs. circuit size (constraints ∝ d³ for
//!   matmul; the paper's "runtimes increase with constraints" claim);
//! * `msm/*` — Pippenger multi-scalar multiplication throughput (the
//!   prover's dominant kernel);
//! * `fft/*` — radix-2 FFT over the scalar field (the `h`-polynomial step);
//! * `pairing/*` — the verifier's unit operations;
//! * `average/fold-vs-divide` — the fold-the-average optimization used by
//!   the end-to-end CNN circuit;
//! * `synthesis/mlp-setup-vs-prove` — the witness-free setup synthesizer
//!   vs. the proving synthesizer over the quick MNIST-MLP extraction
//!   circuit: setup no longer pays any witness-evaluation cost (and the
//!   counting driver is cheaper still);
//! * `verify_batch/*` — amortized batch verification through the
//!   `KeyRegistry` vs. naive per-claim verification (preparation + pairing
//!   check per claim), over 8 same-circuit claims;
//! * `field-backend/*` — the two Montgomery multiplication backends head
//!   to head over 8 independent base-field chains (the instruction-level-
//!   parallel regime the MSM bucket passes and FFT butterflies run in):
//!   the loop-structured schoolbook reference vs. the unrolled no-carry
//!   CIOS kernel (the one `Fp` compiles against);
//! * `prover-hot-path/*` — the prover-spine ablation over the quick
//!   MNIST-MLP extraction circuit: a cold `create_proof_from_cs` (matrices
//!   re-lowered, twiddle tables rebuilt per proof) vs. the cached
//!   `ProverContext` path, plus the isolated witness-map and MSM phases;
//! * `setup-hot-path/*` — the trusted-setup spine ablation over the quick
//!   MNIST-MLP A-query scalar vector: per-scalar serial fixed-base
//!   multiplication (Jacobian mixed adds + batch normalization — the
//!   pre-overhaul shape) vs. the signed-digit batch-affine `mul_many`
//!   kernel at one thread and at full parallelism (the parallel entry
//!   doubles as table-reuse-*on*; `table-reuse-off` re-pays the table
//!   build per run), plus the end-to-end `SetupContext::generate_timed`
//!   keygen.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use rand::SeedableRng;
use zkrownn_curves::{msm::msm, G1Affine, G1Projective};
use zkrownn_ff::{Field, Fr};
use zkrownn_gadgets::matmul::{matmul, NumMatrix};
use zkrownn_groth16::{
    create_proof_from_cs, create_proof_with_context_and_randomness,
    generate_parameters_from_matrices, ProverContext,
};
use zkrownn_pairing::{multi_pairing, pairing, G2Prepared};
use zkrownn_poly::Radix2Domain;
use zkrownn_r1cs::{Circuit, CountingSynthesizer, ProvingSynthesizer, SetupSynthesizer};

fn bench_matmul_scaling(c: &mut Criterion) {
    let mut group = c.benchmark_group("scaling/matmul-prove");
    group.sample_size(10);
    for d in [4usize, 8, 16] {
        let mut cs = ProvingSynthesizer::<Fr>::new();
        let entries: Vec<i128> = (0..(d * d) as i128).map(|i| i % 17 - 8).collect();
        let a = NumMatrix::alloc_witness(&mut cs, d, d, &entries, 8).unwrap();
        let b = NumMatrix::alloc_witness(&mut cs, d, d, &entries, 8).unwrap();
        let _ = matmul(&a, &b, &mut cs).unwrap();
        let mut rng = rand::rngs::StdRng::seed_from_u64(3);
        let pk = generate_parameters_from_matrices(&cs.to_matrices(), &mut rng);
        group.bench_with_input(BenchmarkId::from_parameter(d), &d, |bench, _| {
            bench.iter(|| create_proof_from_cs(&pk, &cs, &mut rng))
        });
    }
    group.finish();
}

fn bench_synthesis_modes(c: &mut Criterion) {
    // The tentpole claim of the mode-aware synthesis API: setup-mode
    // synthesis of the end-to-end MLP circuit evaluates no witness closure
    // (no trigger encoding, no feed-forward value computation, no
    // quotient/bit derivation), so it undercuts prove-mode synthesis.
    let spec = zkrownn_bench::quick_mlp_spec();
    let mut group = c.benchmark_group("synthesis/mlp-setup-vs-prove");
    group.sample_size(10);
    group.bench_function("setup-mode", |b| {
        b.iter(|| {
            let mut cs = SetupSynthesizer::<Fr>::new();
            spec.shape_circuit().synthesize(&mut cs).unwrap();
            cs.num_constraints()
        })
    });
    group.bench_function("prove-mode", |b| {
        b.iter(|| {
            let mut cs = ProvingSynthesizer::<Fr>::new();
            spec.circuit().synthesize(&mut cs).unwrap();
            cs.num_constraints()
        })
    });
    group.bench_function("count-mode", |b| {
        b.iter(|| {
            let mut cs = CountingSynthesizer::<Fr>::new();
            spec.shape_circuit().synthesize(&mut cs).unwrap();
            cs.num_constraints()
        })
    });
    group.finish();
}

fn bench_prover_hot_path(c: &mut Criterion) {
    // The tentpole claim of the prover overhaul: with the context cached
    // (lowered matrices + twiddle tables + vanishing constant), a proof is
    // just witness map + MSMs — and both of those kernels got faster
    // (table-driven parallel FFT; signed-digit batch-affine Pippenger).
    let spec = zkrownn_bench::quick_mlp_spec();
    let mut cs = ProvingSynthesizer::<Fr>::new();
    spec.circuit().synthesize(&mut cs).unwrap();
    let mut rng = rand::rngs::StdRng::seed_from_u64(10);
    let pk = generate_parameters_from_matrices(&cs.to_matrices(), &mut rng);
    let ctx = ProverContext::for_cs(&cs);
    let z = cs.full_assignment();

    let mut group = c.benchmark_group("prover-hot-path");
    group.sample_size(10);
    group.bench_function("cold-context", |b| {
        // rebuilds matrices, domain and twiddle tables on every proof
        b.iter(|| create_proof_from_cs(&pk, &cs, &mut rng))
    });
    group.bench_function("cached-context", |b| {
        let r = Fr::random(&mut rng);
        let s = Fr::random(&mut rng);
        b.iter(|| create_proof_with_context_and_randomness(&pk, &ctx, &z, r, s))
    });
    group.bench_function("witness-map-only", |b| b.iter(|| ctx.witness_map(&z)));
    group.bench_function("context-build-only", |b| {
        b.iter(|| ProverContext::for_cs(&cs).domain().size)
    });
    group.finish();
}

fn bench_setup_hot_path(c: &mut Criterion) {
    // The tentpole claim of the setup overhaul: keygen is fixed-base
    // multiplication, and the signed-digit batch-affine kernel beats the
    // per-scalar windowed path even before parallelism — while the shared
    // table amortizes across every key family.
    use zkrownn_curves::{FixedBaseTable, G1Config};
    use zkrownn_groth16::{qap, SetupContext, ToxicWaste};

    let spec = zkrownn_bench::quick_mlp_spec();
    let mut cs = ProvingSynthesizer::<Fr>::new();
    spec.circuit().synthesize(&mut cs).unwrap();
    let matrices = cs.to_matrices();
    let toxic = ToxicWaste {
        alpha: Fr::from_u64(11),
        beta: Fr::from_u64(12),
        gamma: Fr::from_u64(13),
        delta: Fr::from_u64(14),
        tau: Fr::from_u64(15),
    };
    // the A-query scalar vector — one of the six key families
    let scalars = qap::evaluate_qap_at(&matrices, toxic.tau).u;
    let window = FixedBaseTable::<G1Config>::suggested_window(scalars.len());
    let table = FixedBaseTable::new(G1Projective::generator(), window);

    let mut group = c.benchmark_group("setup-hot-path");
    group.sample_size(10);
    group.bench_function("per-scalar-serial", |b| {
        // the pre-overhaul kernel: one windowed Jacobian walk per scalar,
        // then one batch normalization over the whole vector
        b.iter(|| {
            let jac: Vec<G1Projective> = scalars.iter().map(|s| table.mul(*s)).collect();
            G1Projective::batch_into_affine(&jac)
        })
    });
    group.bench_function("batch-affine-1-thread", |b| {
        b.iter(|| table.mul_many_with_threads(&scalars, 1))
    });
    // parallel over the prebuilt table — this measurement *is* the
    // table-reuse-on configuration; table-reuse-off below re-pays the
    // table build inside each run for the delta
    group.bench_function("batch-affine-parallel", |b| {
        b.iter(|| table.mul_many(&scalars))
    });
    group.bench_function("table-reuse-off", |b| {
        b.iter(|| {
            let fresh = FixedBaseTable::new(G1Projective::generator(), window);
            fresh.mul_many(&scalars)
        })
    });
    let setup_ctx = SetupContext::new(matrices);
    group.bench_function("full-keygen", |b| {
        b.iter(|| setup_ctx.generate_timed(&toxic).0.serialized_size())
    });
    group.finish();
}

fn bench_msm(c: &mut Criterion) {
    let mut rng = rand::rngs::StdRng::seed_from_u64(4);
    let g = G1Projective::generator();
    let mut group = c.benchmark_group("msm/g1");
    group.sample_size(10);
    for n in [256usize, 1024, 4096] {
        let bases: Vec<G1Affine> = (0..n)
            .map(|_| g.mul_scalar(Fr::random(&mut rng)).into_affine())
            .collect();
        let scalars: Vec<Fr> = (0..n).map(|_| Fr::random(&mut rng)).collect();
        group.bench_with_input(BenchmarkId::from_parameter(n), &n, |bench, _| {
            bench.iter(|| msm(&bases, &scalars))
        });
    }
    group.finish();
}

fn bench_fft(c: &mut Criterion) {
    let mut rng = rand::rngs::StdRng::seed_from_u64(5);
    let mut group = c.benchmark_group("fft/radix2");
    for log_n in [10u32, 14] {
        let n = 1usize << log_n;
        let domain = Radix2Domain::<Fr>::new(n).unwrap();
        let coeffs: Vec<Fr> = (0..n).map(|_| Fr::random(&mut rng)).collect();
        group.bench_with_input(BenchmarkId::from_parameter(n), &n, |bench, _| {
            bench.iter(|| domain.fft(&coeffs))
        });
    }
    group.finish();
}

fn bench_pairing(c: &mut Criterion) {
    let mut rng = rand::rngs::StdRng::seed_from_u64(6);
    let p = G1Projective::generator()
        .mul_scalar(Fr::random(&mut rng))
        .into_affine();
    let q = zkrownn_curves::G2Projective::generator()
        .mul_scalar(Fr::random(&mut rng))
        .into_affine();
    c.bench_function("pairing/single", |b| b.iter(|| pairing(&p, &q)));
    let prepared = G2Prepared::from(q);
    c.bench_function("pairing/triple-product", |b| {
        b.iter(|| {
            multi_pairing(&[
                (p, prepared.clone()),
                (p, prepared.clone()),
                (p, prepared.clone()),
            ])
        })
    });
}

fn bench_average_fold(c: &mut Criterion) {
    // constraint-count comparison surfaces in the timing: folded averaging
    // removes every division gadget from the µ computation
    let mut group = c.benchmark_group("average/fold-vs-divide");
    group.sample_size(10);
    for fold in [false, true] {
        let label = if fold { "folded" } else { "divide" };
        let mut cs = ProvingSynthesizer::<Fr>::new();
        use zkrownn_ff::PrimeField;
        use zkrownn_gadgets::cmp::div_by_const;
        use zkrownn_gadgets::Num;
        let rows: Vec<Vec<Num>> = (0..3)
            .map(|r| {
                (0..64)
                    .map(|i| {
                        Num::alloc_witness(&mut cs, || Ok(Fr::from_i128((i + r) as i128)), 20)
                            .unwrap()
                    })
                    .collect()
            })
            .collect();
        for j in 0..64 {
            let mut s = Num::zero();
            for row in &rows {
                s = s.add(&row[j]);
            }
            if !fold {
                let _ = div_by_const(&s, 3, &mut cs).unwrap();
            }
        }
        let mut rng = rand::rngs::StdRng::seed_from_u64(7);
        // anchor the circuit with one constraint if folding removed them all
        if cs.num_constraints() == 0 {
            let one = Num::alloc_witness(&mut cs, || Ok(Fr::one()), 1).unwrap();
            let _ = one.mul(&one, &mut cs).unwrap();
        }
        let pk = generate_parameters_from_matrices(&cs.to_matrices(), &mut rng);
        group.bench_function(label, |b| {
            b.iter(|| create_proof_from_cs(&pk, &cs, &mut rng))
        });
    }
    group.finish();
}

fn bench_field_backend(c: &mut Criterion) {
    use zkrownn_ff::fq::FqParams;
    use zkrownn_ff::{BigInt256, FieldBackend, Fq, PrimeField, SchoolbookBackend, UnrolledBackend};

    // 8 independent Montgomery chains: enough in-flight products to expose
    // the pipelining difference between the kernels (a single dependent
    // chain hides it behind the carry latency). Mirrors the methodology of
    // the `backend_speedup` gate in `zkrownn-ff/tests/mul_throughput.rs`.
    const LANES: usize = 8;
    let y = Fq::from_u64(3).pow(&[0x1357_9bdf]).into_bigint();
    let mut seed = [BigInt256::ZERO; LANES];
    for (i, x) in seed.iter_mut().enumerate() {
        *x = Fq::from_u64(0x1234_5678_9abc_def1)
            .pow(&[0xfeed_beef + i as u64])
            .into_bigint();
    }

    fn chains<B: FieldBackend, const LANES: usize>(
        seed: &[BigInt256; LANES],
        y: &BigInt256,
        rounds: usize,
    ) -> [BigInt256; LANES] {
        let mut xs = *seed;
        for _ in 0..rounds {
            for x in xs.iter_mut() {
                *x = B::mul_reduce::<FqParams>(x, y);
            }
        }
        xs
    }

    let mut group = c.benchmark_group("field-backend");
    group.bench_function("schoolbook", |b| {
        b.iter(|| chains::<SchoolbookBackend, LANES>(&seed, &y, 1024))
    });
    group.bench_function("unrolled", |b| {
        b.iter(|| chains::<UnrolledBackend, LANES>(&seed, &y, 1024))
    });
    group.finish();
}

fn bench_verify_batch(c: &mut Criterion) {
    use zkrownn::{Authority, KeyRegistry, SignedClaim, VerifierKit};
    use zkrownn_gadgets::FixedConfig;

    // a tiny deterministic spec: no training, positive projections, so the
    // all-ones signature extracts exactly and every claim carries verdict 1
    let cfg = FixedConfig::default();
    let model = zkrownn::QuantizedModel {
        layers: vec![
            zkrownn::QuantLayer::Dense {
                in_dim: 2,
                out_dim: 2,
                w: vec![cfg.encode(0.5); 4],
                b: vec![0; 2],
            },
            zkrownn::QuantLayer::ReLU,
        ],
        input_len: 2,
        cfg,
    };
    let spec = zkrownn::ExtractionSpec {
        model,
        triggers: vec![vec![cfg.encode(1.0); 2]; 2],
        projection: vec![cfg.encode(0.25); 8],
        signature: vec![true; 4],
        max_errors: 0,
        fold_average: false,
        cfg,
    };
    let mut rng = rand::rngs::StdRng::seed_from_u64(8);
    let (prover, verifier) = Authority::setup(&spec, &mut rng);
    let claims: Vec<SignedClaim> = (0..8)
        .map(|_| prover.prove(&mut rng).expect("honest claim"))
        .collect();
    let vk = verifier.verifying_key().clone();
    let id = verifier.circuit_id();

    let mut group = c.benchmark_group("verify_batch");
    group.sample_size(10);
    // naive service: pairing preparation + a 3-Miller-loop check per claim
    group.bench_function("one-shot-x8", |b| {
        b.iter(|| {
            for claim in &claims {
                let kit = VerifierKit::from_parts(vk.clone(), id);
                kit.verify(claim).expect("claim verifies");
            }
        })
    });
    // amortized: one preparation, one input vector per distinct statement,
    // one random-linear-combination pairing check for the whole batch
    group.bench_function("batched-x8", |b| {
        b.iter(|| {
            let mut rng = rand::rngs::StdRng::seed_from_u64(9);
            let registry = KeyRegistry::new();
            registry.register(id, &vk);
            for result in registry.verify_batch(&claims, &mut rng) {
                result.expect("claim verifies");
            }
        })
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_matmul_scaling,
    bench_synthesis_modes,
    bench_prover_hot_path,
    bench_setup_hot_path,
    bench_msm,
    bench_fft,
    bench_pairing,
    bench_average_fold,
    bench_field_backend,
    bench_verify_batch
);
criterion_main!(benches);
