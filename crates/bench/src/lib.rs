//! # zkrownn-bench — the Table I / Table II benchmark harness
//!
//! Builders for every circuit row of the paper's Table I (seven standalone
//! gadget circuits plus the two end-to-end networks), a measurement harness
//! that reports the same seven metrics the paper does (constraints, setup
//! time, PK size, prover time, proof size, VK size, verifier time), and the
//! paper's reference numbers for side-by-side comparison.
//!
//! Instance/witness visibility follows the paper's observable choices: the
//! MatMult and Conv3D rows keep everything private (their reported VKs are
//! ~0.2 KB), ReLU/Average2D/Sigmoid/HardThresholding expose their outputs,
//! BER exposes only the verdict, and the end-to-end rows take the model
//! weights as public input.

#![warn(missing_docs)]

pub mod service;

use rand::SeedableRng;
use std::time::{Duration, Instant};
use zkrownn::benchmarks::{spec_from_keys, watermarked_cnn, watermarked_mlp, BenchmarkScale};
use zkrownn::ExtractionSpec;
use zkrownn_deepsigns::{embed, generate_keys, EmbedConfig, KeyGenConfig};
use zkrownn_ff::{Field, Fr, PrimeField};
use zkrownn_gadgets::average::average_rows;
use zkrownn_gadgets::conv::{conv3d, ConvShape};
use zkrownn_gadgets::matmul::{matmul, NumMatrix};
use zkrownn_gadgets::relu::relu_vec;
use zkrownn_gadgets::sigmoid::sigmoid_vec;
use zkrownn_gadgets::threshold::hard_threshold_vec;
use zkrownn_gadgets::{ber::ber_circuit, FixedConfig, Num};
use zkrownn_groth16::{
    prove, verify_proof_prepared, KeyCollector, KeySink, KeySource, ProverContext, ToxicWaste,
    VerifyingKey,
};
use zkrownn_nn::{generate_gmm, Dense, GmmConfig, Layer, Network};
use zkrownn_r1cs::{Circuit, ConstraintSystem, ProvingSynthesizer, SynthesisError};
use zkrownn_store::{KeyStore, KeyStoreWriter, StoreBackend, StoredKey};

pub use zkrownn_curves::MemoryBudget;

/// Benchmark scale: the paper's exact dimensions, or reduced ones for
/// quick runs / CI.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum Scale {
    /// Dimensions from the Table I caption.
    Paper,
    /// Reduced dimensions (same circuits, ~100× smaller).
    Quick,
}

/// One measured Table I row.
#[derive(Clone, Debug)]
pub struct RowMetrics {
    /// Row name (as in Table I).
    pub name: &'static str,
    /// Number of R1CS constraints.
    pub constraints: usize,
    /// FFT-domain size the prover interpolates over.
    pub domain_size: usize,
    /// Trusted-setup wall time.
    pub setup_time: Duration,
    /// The setup's scalar phase: QAP evaluation at `τ` and the derived
    /// scalar vectors.
    pub setup_qap_time: Duration,
    /// The setup's group phase: fixed-base table builds plus the
    /// batch-affine multiplications for every key family.
    pub setup_commit_time: Duration,
    /// Proving-key size in bytes.
    pub pk_bytes: usize,
    /// One-time context build (setup synthesis into the matrices +
    /// twiddle tables + vanishing constant) — the one `ProverContext` that
    /// key generation and the prover both read, amortized across proofs in
    /// batch workloads.
    pub context_time: Duration,
    /// Prover wall time (witness map + MSMs + assembly, cached context).
    pub prove_time: Duration,
    /// The FFT-heavy quotient phase of the prover.
    pub witness_map_time: Duration,
    /// The multi-scalar-multiplication phase of the prover.
    pub msm_time: Duration,
    /// Proof size in bytes.
    pub proof_bytes: usize,
    /// Verifying-key size in bytes.
    pub vk_bytes: usize,
    /// Verifier wall time.
    pub verify_time: Duration,
    /// Peak resident-set size (`VmHWM`) observed across setup + prove +
    /// verify, in bytes. `0` only when the platform exposes no high-water
    /// mark (non-Linux).
    pub peak_rss_bytes: u64,
    /// Number of segments in the on-disk key store consumed by the
    /// streamed prover; `0` when the key was kept in memory.
    pub key_segments: usize,
}

/// The paper's reported numbers for a row (for side-by-side printing).
#[derive(Clone, Copy, Debug)]
pub struct PaperRow {
    /// Row name.
    pub name: &'static str,
    /// Reported constraint count.
    pub constraints: u64,
    /// Reported setup seconds.
    pub setup_s: f64,
    /// Reported PK size (MB).
    pub pk_mb: f64,
    /// Reported prover seconds.
    pub prove_s: f64,
    /// Reported proof size (B).
    pub proof_b: f64,
    /// Reported VK size (KB).
    pub vk_kb: f64,
    /// Reported verifier milliseconds.
    pub verify_ms: f64,
}

/// Table I as printed in the paper.
pub const PAPER_TABLE1: [PaperRow; 9] = [
    PaperRow {
        name: "MatMult",
        constraints: 1_097_344,
        setup_s: 57.3976,
        pk_mb: 215.6518,
        prove_s: 18.6805,
        proof_b: 127.375,
        vk_kb: 0.199,
        verify_ms: 0.6,
    },
    PaperRow {
        name: "Conv3D",
        constraints: 235_899,
        setup_s: 13.3621,
        pk_mb: 46.3793,
        prove_s: 4.2081,
        proof_b: 127.375,
        vk_kb: 0.199,
        verify_ms: 0.6,
    },
    PaperRow {
        name: "ReLU",
        constraints: 8_832,
        setup_s: 0.6384,
        pk_mb: 1.7193,
        prove_s: 0.1907,
        proof_b: 127.375,
        vk_kb: 5.303,
        verify_ms: 0.7,
    },
    PaperRow {
        name: "Average2D",
        constraints: 545_793,
        setup_s: 29.6248,
        pk_mb: 107.3271,
        prove_s: 9.5570,
        proof_b: 127.375,
        vk_kb: 5.303,
        verify_ms: 0.6,
    },
    PaperRow {
        name: "Sigmoid",
        constraints: 454_656,
        setup_s: 34.4989,
        pk_mb: 90.5934,
        prove_s: 8.3680,
        proof_b: 127.375,
        vk_kb: 41.031,
        verify_ms: 0.8,
    },
    PaperRow {
        name: "HardThresholding",
        constraints: 8_704,
        setup_s: 0.624,
        pk_mb: 1.6978,
        prove_s: 0.1857,
        proof_b: 127.375,
        vk_kb: 5.303,
        verify_ms: 0.7,
    },
    PaperRow {
        name: "BER",
        constraints: 8_832,
        setup_s: 0.6423,
        pk_mb: 1.7527,
        prove_s: 0.1826,
        proof_b: 127.375,
        vk_kb: 0.2389,
        verify_ms: 0.6,
    },
    PaperRow {
        name: "MNIST-MLP",
        constraints: 2_093_648,
        setup_s: 68.4456,
        pk_mb: 280.3859,
        prove_s: 45.1208,
        proof_b: 127.375,
        vk_kb: 16_006.343,
        verify_ms: 29.4,
    },
    PaperRow {
        name: "CIFAR10-CNN",
        constraints: 590_624,
        setup_s: 32.35,
        pk_mb: 117.1699,
        prove_s: 11.22,
        proof_b: 127.375,
        vk_kb: 34.651,
        verify_ms: 1.0,
    },
];

/// All Table I row names, in paper order (keys for [`row_circuit`]).
pub const ROW_NAMES: [&str; 9] = [
    "matmult",
    "conv3d",
    "relu",
    "average2d",
    "sigmoid",
    "hardthreshold",
    "ber",
    "mnist-mlp",
    "cifar-cnn",
];

/// Bit-width used for the standalone integer circuits — chosen to mirror
/// the paper's apparent per-element cost (~69 constraints per ReLU element
/// suggests a 64-bit word size in their xJsnark circuits).
pub const STANDALONE_BITS: u32 = 64;

fn pseudo_entries(n: usize, modulus: i128, seed: i128) -> Vec<i128> {
    (0..n as i128)
        .map(|i| (i * 37 + seed) % modulus - modulus / 2)
        .collect()
}

/// A Table I row as a mode-agnostic circuit: one value synthesizable under
/// the setup, proving or counting driver (see [`row_circuit`]).
pub enum Table1Circuit {
    /// "MatMult": private `A, B ∈ ℤ^{d×d}`, private output.
    MatMult {
        /// Matrix dimension.
        d: usize,
    },
    /// "Conv3D": all-private valid convolution.
    Conv3d {
        /// Convolution geometry.
        shape: ConvShape,
    },
    /// "ReLU": private vector, public outputs.
    Relu {
        /// Vector length.
        n: usize,
    },
    /// "Average2D": private `n×n` matrix, public column means.
    Average2d {
        /// Matrix dimension.
        n: usize,
    },
    /// "Sigmoid": private vector through the degree-9 Chebyshev sigmoid.
    Sigmoid {
        /// Vector length.
        n: usize,
    },
    /// "HardThresholding": private vector, threshold 0.5, public bits.
    HardThreshold {
        /// Vector length.
        n: usize,
    },
    /// "BER": two private bit strings, public verdict.
    Ber {
        /// Bit-string length.
        n: usize,
    },
    /// An end-to-end extraction circuit ("mnist-mlp" / "cifar-cnn").
    Extraction(Box<ExtractionSpec>),
}

impl Circuit<Fr> for Table1Circuit {
    type Output = ();

    fn synthesize<CS: ConstraintSystem<Fr>>(&self, cs: &mut CS) -> Result<(), SynthesisError> {
        match self {
            Table1Circuit::MatMult { d } => {
                let d = *d;
                let a = NumMatrix::alloc_witness(cs, d, d, &pseudo_entries(d * d, 1000, 7), 16)?;
                let b = NumMatrix::alloc_witness(cs, d, d, &pseudo_entries(d * d, 1000, 13), 16)?;
                let _c = matmul(&a, &b, cs)?;
            }
            Table1Circuit::Conv3d { shape } => {
                let input: Vec<Num> = pseudo_entries(shape.in_len(), 500, 3)
                    .iter()
                    .map(|&v| Num::alloc_witness(cs, || Ok(Fr::from_i128(v)), 16))
                    .collect::<Result<_, _>>()?;
                let kernels: Vec<Num> = pseudo_entries(shape.kernel_len(), 500, 5)
                    .iter()
                    .map(|&v| Num::alloc_witness(cs, || Ok(Fr::from_i128(v)), 16))
                    .collect::<Result<_, _>>()?;
                let _out = conv3d(&input, &kernels, shape, cs)?;
            }
            Table1Circuit::Relu { n } => {
                let xs: Vec<Num> = pseudo_entries(*n, 1 << 20, 11)
                    .iter()
                    .map(|&v| Num::alloc_witness(cs, || Ok(Fr::from_i128(v)), STANDALONE_BITS))
                    .collect::<Result<_, _>>()?;
                for out in relu_vec(&xs, cs)? {
                    out.expose_as_output(cs)?;
                }
            }
            Table1Circuit::Average2d { n } => {
                let rows: Vec<Vec<Num>> = (0..*n)
                    .map(|r| {
                        pseudo_entries(*n, 1 << 20, r as i128)
                            .iter()
                            .map(|&v| {
                                Num::alloc_witness(cs, || Ok(Fr::from_i128(v)), STANDALONE_BITS)
                            })
                            .collect::<Result<_, _>>()
                    })
                    .collect::<Result<_, _>>()?;
                for out in average_rows(&rows, cs)? {
                    out.expose_as_output(cs)?;
                }
            }
            Table1Circuit::Sigmoid { n } => {
                let cfg = FixedConfig::default();
                let xs: Vec<Num> = (0..*n)
                    .map(|i| {
                        let x = (i as f64 / *n as f64) * 8.0 - 4.0;
                        Num::alloc_witness(
                            cs,
                            || Ok(Fr::from_i128(cfg.encode(x))),
                            cfg.value_bits(),
                        )
                    })
                    .collect::<Result<_, _>>()?;
                for out in sigmoid_vec(&xs, &cfg, cs)? {
                    out.expose_as_output(cs)?;
                }
            }
            Table1Circuit::HardThreshold { n } => {
                let cfg = FixedConfig::default();
                let xs: Vec<Num> = pseudo_entries(*n, 1 << 18, 17)
                    .iter()
                    .map(|&v| Num::alloc_witness(cs, || Ok(Fr::from_i128(v)), STANDALONE_BITS))
                    .collect::<Result<_, _>>()?;
                let beta = Fr::from_i128(1i128 << (cfg.frac_bits - 1));
                for out in hard_threshold_vec(&xs, beta, cs)? {
                    out.num.expose_as_output(cs)?;
                }
            }
            Table1Circuit::Ber { n } => {
                let wm: Vec<bool> = (0..*n).map(|i| i % 3 == 0).collect();
                let mut ex = wm.clone();
                ex[1] = !ex[1];
                let _ = ber_circuit(&wm, &ex, 2, cs)?;
            }
            Table1Circuit::Extraction(spec) => {
                let _ = spec.circuit().synthesize(cs)?;
            }
        }
        Ok(())
    }
}

fn vector_len(scale: Scale) -> usize {
    match scale {
        Scale::Paper => 128,
        Scale::Quick => 16,
    }
}

/// The quick-scale end-to-end MLP extraction spec (same circuit shape as
/// the paper's MNIST-MLP row, reduced dimensions: 96 → 32, 8-bit wm) —
/// also the subject of the golden constraint-count regression test.
pub fn quick_mlp_spec() -> ExtractionSpec {
    let mut rng = rand::rngs::StdRng::seed_from_u64(1001);
    let cfg = FixedConfig::default();
    let gmm = GmmConfig {
        input_shape: vec![96],
        num_classes: 10,
        mean_scale: 1.0,
        noise_std: 0.35,
    };
    let data = generate_gmm(&gmm, 200, &mut rng);
    let mut net = Network::new(vec![
        Layer::Dense(Dense::new(96, 32, &mut rng)),
        Layer::ReLU,
        Layer::Dense(Dense::new(32, 10, &mut rng)),
    ]);
    net.train(&data.xs, &data.ys, 2, 0.02);
    let keys = generate_keys(
        &KeyGenConfig {
            layer: 1,
            activation_dim: 32,
            signature_bits: 8,
            num_triggers: 3,
            projection_std: 1.0 / (32f32).sqrt(),
        },
        &data,
        &mut rng,
    );
    embed(&mut net, &keys, &data.xs, &data.ys, &EmbedConfig::default());
    spec_from_keys(&net, &keys, false, 1, &cfg)
}

/// The quick-scale end-to-end CNN extraction spec (watermark in the first
/// convolution layer, averaging folded into the projection) — also the
/// subject of the golden constraint-count regression test.
pub fn quick_cnn_spec() -> ExtractionSpec {
    use zkrownn_nn::Conv2d;
    let mut rng = rand::rngs::StdRng::seed_from_u64(1002);
    let cfg = FixedConfig::default();
    let gmm = GmmConfig {
        input_shape: vec![3, 16, 16],
        num_classes: 4,
        mean_scale: 1.0,
        noise_std: 0.35,
    };
    let data = generate_gmm(&gmm, 120, &mut rng);
    let mut net = Network::new(vec![
        Layer::Conv2d(Conv2d::new(3, 8, 3, 2, &mut rng)),
        Layer::ReLU,
        Layer::Flatten,
        Layer::Dense(Dense::new(8 * 7 * 7, 4, &mut rng)),
    ]);
    net.train(&data.xs, &data.ys, 2, 0.01);
    let keys = generate_keys(
        &KeyGenConfig {
            layer: 0,
            activation_dim: 8 * 7 * 7,
            signature_bits: 8,
            num_triggers: 2,
            projection_std: 1.0 / (8f32 * 49.0).sqrt(),
        },
        &data,
        &mut rng,
    );
    embed(&mut net, &keys, &data.xs, &data.ys, &EmbedConfig::default());
    spec_from_keys(&net, &keys, true, 1, &cfg)
}

/// Builds a Table I row as a mode-agnostic [`Table1Circuit`] by name (see
/// [`ROW_NAMES`]). The end-to-end rows train and watermark their model
/// here, so the returned value can be synthesized repeatedly (setup, then
/// prove, then count) without repeating that work.
///
/// # Panics
/// Panics on an unknown row name.
pub fn row_circuit(name: &str, scale: Scale) -> Table1Circuit {
    match name {
        "matmult" => Table1Circuit::MatMult {
            d: match scale {
                Scale::Paper => 128,
                Scale::Quick => 16,
            },
        },
        "conv3d" => Table1Circuit::Conv3d {
            shape: match scale {
                Scale::Paper => ConvShape {
                    in_channels: 3,
                    height: 32,
                    width: 32,
                    out_channels: 32,
                    kernel: 3,
                    stride: 2,
                },
                Scale::Quick => ConvShape {
                    in_channels: 3,
                    height: 8,
                    width: 8,
                    out_channels: 4,
                    kernel: 3,
                    stride: 2,
                },
            },
        },
        "relu" => Table1Circuit::Relu {
            n: vector_len(scale),
        },
        "average2d" => Table1Circuit::Average2d {
            n: vector_len(scale),
        },
        "sigmoid" => Table1Circuit::Sigmoid {
            n: vector_len(scale),
        },
        "hardthreshold" => Table1Circuit::HardThreshold {
            n: vector_len(scale),
        },
        "ber" => Table1Circuit::Ber {
            n: vector_len(scale),
        },
        "mnist-mlp" => Table1Circuit::Extraction(Box::new(match scale {
            Scale::Paper => {
                let mut rng = rand::rngs::StdRng::seed_from_u64(1001);
                let cfg = FixedConfig::default();
                let bench = watermarked_mlp(&BenchmarkScale::paper(), &mut rng);
                spec_from_keys(&bench.net, &bench.keys, false, 1, &cfg)
            }
            Scale::Quick => quick_mlp_spec(),
        })),
        "cifar-cnn" => Table1Circuit::Extraction(Box::new(match scale {
            Scale::Paper => {
                let mut rng = rand::rngs::StdRng::seed_from_u64(1002);
                let cfg = FixedConfig::default();
                let mut paper = BenchmarkScale::paper();
                paper.num_triggers = 3; // conv activation maps are large
                let bench = watermarked_cnn(&paper, &mut rng);
                spec_from_keys(&bench.net, &bench.keys, true, 1, &cfg)
            }
            Scale::Quick => quick_cnn_spec(),
        })),
        other => panic!("unknown Table I row {other:?}"),
    }
}

/// The paper's reference metrics for a row name, if recorded.
pub fn paper_reference(name: &str) -> Option<&'static PaperRow> {
    let canonical = match name.to_lowercase().as_str() {
        "matmult" => "MatMult",
        "conv3d" => "Conv3D",
        "relu" => "ReLU",
        "average2d" => "Average2D",
        "sigmoid" => "Sigmoid",
        "hardthresholding" | "hardthreshold" => "HardThresholding",
        "ber" => "BER",
        "mnist-mlp" => "MNIST-MLP",
        "cifar10-cnn" | "cifar-cnn" => "CIFAR10-CNN",
        _ => return None,
    };
    PAPER_TABLE1.iter().find(|r| r.name == canonical)
}

/// What [`measure`] needs of a finished key, wherever keygen put it.
struct MeasuredKey<K> {
    /// The key as the prover reads it.
    source: K,
    vk: VerifyingKey,
    /// Serialized key size: wire bytes in memory, file bytes on disk.
    pk_bytes: usize,
    /// Segments in the on-disk store (`0` in memory).
    segments: usize,
}

/// Runs setup → prove → verify over a circuit and measures all seven
/// Table I metrics plus the setup phase breakdown (QAP scalars / group
/// commitments), the prover phase breakdown (context build / witness map /
/// MSMs) and the row's own peak RSS. The circuit is synthesized twice, as
/// the two roles do: in proving mode for the assignment (before any
/// clock starts), and in setup mode for the matrices (the context build).
///
/// `store_budget` says where the key goes. `None` keeps it in memory.
/// `Some(budget)` runs the *streaming* pipeline end to end — keygen
/// chunked under `budget` straight into an on-disk `.zkst` key store, then
/// the prover consuming base chunks from that store at the same budget.
/// The proving key is then never materialized in memory: `pk_bytes`
/// reports the on-disk store size, and the store is read through the
/// buffered backend so the footprint stays honest even under an
/// address-space cap (mmap would count the whole file against
/// `ulimit -v`). Either way `setup_time` runs until the key is ready to
/// prove from — collected, or durably committed and reopened.
///
/// # Panics
/// Panics on an unsatisfied circuit, on store I/O failures, or if the
/// proof fails to verify.
pub fn measure<C: Circuit<Fr>>(
    name: &'static str,
    circuit: &C,
    store_budget: Option<MemoryBudget>,
) -> RowMetrics {
    let Some(budget) = store_budget else {
        let unbounded = MemoryBudget::from_bytes(usize::MAX);
        return measure_through(name, circuit, KeyCollector::default(), unbounded, |sink| {
            let pk = sink.into_key();
            Ok(MeasuredKey {
                vk: pk.vk.clone(),
                pk_bytes: pk.serialized_size(),
                segments: 0,
                source: pk,
            })
        });
    };
    let store_path =
        std::env::temp_dir().join(format!("zkrownn-bench-{}-{name}.zkst", std::process::id()));
    let sink = KeyStoreWriter::create(&store_path, None)
        .unwrap_or_else(|e| panic!("{name}: creating key store: {e}"));
    let metrics = measure_through(name, circuit, sink, budget, |sink| {
        sink.finish()?;
        let store = KeyStore::open_with(&store_path, StoreBackend::Buffered)?;
        Ok(MeasuredKey {
            vk: store.verifying_key()?,
            pk_bytes: store.file().file_len() as usize,
            segments: store.segment_count(),
            source: StoredKey { store, budget },
        })
    });
    let _ = std::fs::remove_file(&store_path);
    metrics
}

/// The one measurement body: keygen into `sink` at `budget`, `finish` the
/// sink into the key the prover reads, prove from it, verify.
fn measure_through<C: Circuit<Fr>, S: KeySink, K: KeySource>(
    name: &'static str,
    circuit: &C,
    mut sink: S,
    budget: MemoryBudget,
    finish: impl FnOnce(S) -> Result<MeasuredKey<K>, Box<dyn std::error::Error>>,
) -> RowMetrics
where
    S::Error: std::fmt::Display,
    K::Error: std::fmt::Display,
{
    let mut rng = rand::rngs::StdRng::seed_from_u64(0xbe9c);
    let mut cs = ProvingSynthesizer::new();
    circuit
        .synthesize(&mut cs)
        .unwrap_or_else(|e| panic!("{name}: proving synthesis: {e}"));
    assert!(cs.is_satisfied().is_ok(), "{name}: unsatisfied circuit");
    reset_peak_rss();

    // the one-time cost both roles share: setup synthesis into the
    // matrices + domain construction with its twiddle/coset tables (the
    // same context generates the key and proves below, mirroring
    // `Authority::setup`)
    let t = Instant::now();
    let ctx = ProverContext::for_circuit(circuit)
        .unwrap_or_else(|e| panic!("{name}: setup synthesis: {e}"));
    let context_time = t.elapsed();

    let toxic = ToxicWaste::sample(&mut rng);
    let t = Instant::now();
    let setup_timings = ctx
        .generate_into(&toxic, &mut sink, budget)
        .unwrap_or_else(|e| panic!("{name}: keygen: {e}"));
    let key = finish(sink).unwrap_or_else(|e| panic!("{name}: finishing the key: {e}"));
    let setup_time = t.elapsed();

    let z = cs.full_assignment();
    let r = Fr::random(&mut rng);
    let s = Fr::random(&mut rng);
    let (proof, timings) =
        prove(&ctx, &key.source, &z, r, s).unwrap_or_else(|e| panic!("{name}: prover: {e}"));

    let publics: Vec<Fr> = cs.instance_assignment()[1..].to_vec();
    let pvk = key.vk.prepare();
    let t = Instant::now();
    verify_proof_prepared(&pvk, &proof, &publics).expect("proof must verify");
    let verify_time = t.elapsed();

    RowMetrics {
        name,
        constraints: cs.num_constraints(),
        domain_size: ctx.domain().size,
        setup_time,
        setup_qap_time: setup_timings.qap_eval,
        setup_commit_time: setup_timings.commit,
        pk_bytes: key.pk_bytes,
        context_time,
        prove_time: timings.total,
        witness_map_time: timings.witness_map,
        msm_time: timings.msm,
        proof_bytes: proof.to_bytes().len(),
        vk_bytes: key.vk.serialized_size(),
        verify_time,
        peak_rss_bytes: peak_rss_bytes(),
        key_segments: key.segments,
    }
}

/// Resets the kernel's peak-RSS high-water mark for this process, so the
/// next [`peak_rss_bytes`] reading covers only work done after the reset.
/// Best-effort: a no-op where `/proc/self/clear_refs` is unavailable.
pub fn reset_peak_rss() {
    let _ = std::fs::write("/proc/self/clear_refs", "5");
}

/// The process's peak resident-set size (`VmHWM`) in bytes, or `0` where
/// `/proc/self/status` is unavailable.
pub fn peak_rss_bytes() -> u64 {
    let Ok(status) = std::fs::read_to_string("/proc/self/status") else {
        return 0;
    };
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<u64>()
                .ok()
        })
        .map(|kb| kb * 1024)
        .unwrap_or(0)
}

/// Sustained verification throughput through the byte-level
/// [`zkrownn_verifier::zkrownn_verify`] entry point — the full
/// envelope-decode → statement-synthesis → pairing path a cold verifier
/// (wasm page, enclave, contract host) pays per claim, with no key or
/// preparation cached across calls.
#[derive(Clone, Copy, Debug)]
pub struct VerifyThroughput {
    /// Full byte-level verifications per second.
    pub claims_per_s: f64,
    /// Mean wall time per verification, in milliseconds.
    pub mean_ms: f64,
    /// Number of verifications timed.
    pub iters: u32,
}

/// Measures [`VerifyThroughput`] on a small deterministic claim: setup and
/// prove once, serialize the three dispute artifacts, then time repeated
/// `zkrownn_verify` calls over the raw bytes.
pub fn measure_verify_throughput() -> VerifyThroughput {
    let cfg = FixedConfig::default();
    let spec = ExtractionSpec {
        model: zkrownn::QuantizedModel {
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
        },
        triggers: vec![vec![cfg.encode(1.0); 2]],
        projection: vec![cfg.encode(0.25); 4],
        signature: vec![true, false],
        max_errors: 2,
        fold_average: false,
        cfg,
    };
    let mut rng = rand::rngs::StdRng::seed_from_u64(2026);
    let (prover, verifier) = zkrownn::Authority::setup(&spec, &mut rng);
    let claim = prover.prove(&mut rng).expect("honest spec proves");
    use zkrownn::Artifact;
    let vk_bytes = Artifact::to_bytes(verifier.verifying_key());
    let statement_bytes = Artifact::to_bytes(&spec.statement());
    let claim_bytes = Artifact::to_bytes(&claim);

    let run = |iters: u32| {
        let t = Instant::now();
        for _ in 0..iters {
            zkrownn_verifier::zkrownn_verify(&vk_bytes, &statement_bytes, &claim_bytes)
                .expect("honest claim verifies");
        }
        t.elapsed()
    };
    run(3); // warm the instruction cache and the allocator
    let iters = 64u32;
    let elapsed = run(iters);
    let mean = elapsed.as_secs_f64() / iters as f64;
    VerifyThroughput {
        claims_per_s: 1.0 / mean,
        mean_ms: mean * 1e3,
        iters,
    }
}

/// Serializes measured rows as the `BENCH_prover.json` document: schema
/// tag, environment (thread count), and one object per row with seconds as
/// floats. Hand-rolled writer (the workspace is offline — no serde), but
/// strictly valid JSON: names are ASCII identifiers, numbers finite.
///
/// Schema `v2` added the trusted-setup phase breakdown
/// (`setup_qap_s` / `setup_commit_s`) alongside `setup_s`; schema `v3`
/// added the `peak_rss_bytes` / `key_segments` columns (`key_segments` is
/// `0` for rows whose key stayed in memory), and later grew
/// the optional top-level `verify` object (byte-level verification
/// throughput through `zkrownn_verify`) — additive, so v3 consumers that
/// only read `rows` are unaffected.
pub fn prover_json(rows: &[RowMetrics], scale: Scale, verify: Option<&VerifyThroughput>) -> String {
    let mut out = String::from("{\n");
    out.push_str("  \"schema\": \"zkrownn-bench-prover/v3\",\n");
    out.push_str(&format!(
        "  \"scale\": \"{}\",\n",
        match scale {
            Scale::Paper => "paper",
            Scale::Quick => "quick",
        }
    ));
    out.push_str(&format!(
        "  \"threads\": {},\n",
        std::thread::available_parallelism()
            .map(|v| v.get())
            .unwrap_or(1)
    ));
    if let Some(v) = verify {
        out.push_str(&format!(
            "  \"verify\": {{\"entrypoint\": \"zkrownn_verify\", \
             \"claims_per_s\": {:.2}, \"mean_ms\": {:.4}, \"iters\": {}}},\n",
            v.claims_per_s, v.mean_ms, v.iters
        ));
    }
    out.push_str("  \"rows\": [\n");
    for (i, r) in rows.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"name\": \"{}\", \"constraints\": {}, \"domain_size\": {}, \
             \"setup_s\": {:.6}, \"setup_qap_s\": {:.6}, \"setup_commit_s\": {:.6}, \
             \"context_s\": {:.6}, \"prove_s\": {:.6}, \
             \"witness_map_s\": {:.6}, \"msm_s\": {:.6}, \"verify_s\": {:.6}, \
             \"pk_bytes\": {}, \"vk_bytes\": {}, \"proof_bytes\": {}, \
             \"peak_rss_bytes\": {}, \"key_segments\": {}}}{}\n",
            r.name,
            r.constraints,
            r.domain_size,
            r.setup_time.as_secs_f64(),
            r.setup_qap_time.as_secs_f64(),
            r.setup_commit_time.as_secs_f64(),
            r.context_time.as_secs_f64(),
            r.prove_time.as_secs_f64(),
            r.witness_map_time.as_secs_f64(),
            r.msm_time.as_secs_f64(),
            r.verify_time.as_secs_f64(),
            r.pk_bytes,
            r.vk_bytes,
            r.proof_bytes,
            r.peak_rss_bytes,
            r.key_segments,
            if i + 1 == rows.len() { "" } else { "," },
        ));
    }
    out.push_str("  ]\n}\n");
    out
}

/// Formats measured rows (with the paper's numbers interleaved) as a
/// markdown table.
pub fn format_table(rows: &[RowMetrics]) -> String {
    let mut out = String::new();
    out.push_str(
        "| Benchmark | Constraints | Setup (s) | PK (MB) | Prove (s) | Proof (B) | VK (KB) | Verify (ms) |\n",
    );
    out.push_str("|---|---:|---:|---:|---:|---:|---:|---:|\n");
    for r in rows {
        out.push_str(&format!(
            "| {} (ours) | {} | {:.3} | {:.2} | {:.3} | {} | {:.3} | {:.2} |\n",
            r.name,
            r.constraints,
            r.setup_time.as_secs_f64(),
            r.pk_bytes as f64 / 1e6,
            r.prove_time.as_secs_f64(),
            r.proof_bytes,
            r.vk_bytes as f64 / 1e3,
            r.verify_time.as_secs_f64() * 1e3,
        ));
        if let Some(p) = paper_reference(r.name) {
            out.push_str(&format!(
                "| {} (paper) | {} | {:.3} | {:.2} | {:.3} | 127 | {:.3} | {:.2} |\n",
                p.name, p.constraints, p.setup_s, p.pk_mb, p.prove_s, p.vk_kb, p.verify_ms
            ));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_rows_all_build_and_satisfy() {
        for name in ROW_NAMES {
            let mut cs = ProvingSynthesizer::<Fr>::new();
            row_circuit(name, Scale::Quick).synthesize(&mut cs).unwrap();
            assert!(cs.is_satisfied().is_ok(), "row {name}");
            assert!(cs.num_constraints() > 0, "row {name}");
        }
    }

    #[test]
    fn quick_rows_setup_mode_agrees_with_proving_mode() {
        use zkrownn_r1cs::SetupSynthesizer;
        for name in ["ber", "relu", "hardthreshold", "mnist-mlp", "cifar-cnn"] {
            let circuit = row_circuit(name, Scale::Quick);
            let mut setup = SetupSynthesizer::<Fr>::new();
            circuit.synthesize(&mut setup).unwrap();
            let (m, ()) = setup.into_parts();
            let mut cs = ProvingSynthesizer::<Fr>::new();
            circuit.synthesize(&mut cs).unwrap();
            // the prover's assignment satisfies the matrices the keys were
            // made from (pinned through the golden `CircuitId`s), and its
            // own row-by-row check agrees
            let z = cs.full_assignment();
            assert_eq!(z.len(), m.num_variables(), "row {name}");
            let ab = m.a().row_products(&z).zip(m.b().row_products(&z));
            let violated = ab
                .zip(m.c().row_products(&z))
                .position(|((a, b), c)| a * b != c);
            assert_eq!(violated, None, "row {name}");
            assert_eq!(cs.is_satisfied(), Ok(()), "row {name}");
            assert_eq!(cs.num_constraints(), m.num_constraints(), "row {name}");
        }
    }

    #[test]
    fn quick_relu_row_measures_end_to_end() {
        let m = measure("ReLU", &row_circuit("relu", Scale::Quick), None);
        assert_eq!(m.proof_bytes, 128);
        assert!(m.verify_time.as_secs_f64() < 1.0);
        assert_eq!(m.key_segments, 0);
    }

    #[test]
    fn store_backed_measure_matches_in_memory_row() {
        let ber = row_circuit("ber", Scale::Quick);
        let in_memory = measure("ber", &ber, None);
        let streamed = measure("ber", &ber, Some(MemoryBudget::from_mb(4)));
        assert_eq!(streamed.proof_bytes, 128);
        assert_eq!(streamed.constraints, in_memory.constraints);
        assert_eq!(streamed.vk_bytes, in_memory.vk_bytes);
        // constants + IC + the six proving-key families (no META: the
        // bench store is not circuit-bound)
        assert!(
            streamed.key_segments >= 7,
            "expected a fully segmented key store, got {} segments",
            streamed.key_segments
        );
        // the on-disk key is real (container overhead over an empty file)
        assert!(streamed.pk_bytes > 1024);
        if cfg!(target_os = "linux") {
            // every row records its own high-water mark, wherever its key is
            assert!(streamed.peak_rss_bytes > 0, "VmHWM should be readable");
            assert!(in_memory.peak_rss_bytes > 0, "VmHWM should be readable");
        }
    }

    #[test]
    fn paper_reference_lookup() {
        assert_eq!(paper_reference("matmult").unwrap().constraints, 1_097_344);
        assert_eq!(paper_reference("MatMult").unwrap().constraints, 1_097_344);
        assert!(paper_reference("nope").is_none());
    }

    #[test]
    fn paper_scale_conv_geometry_matches_caption() {
        let shape = ConvShape {
            in_channels: 3,
            height: 32,
            width: 32,
            out_channels: 32,
            kernel: 3,
            stride: 2,
        };
        assert_eq!(shape.out_len(), 32 * 15 * 15);
    }

    #[test]
    fn format_table_contains_paper_rows() {
        let m = measure("BER", &row_circuit("ber", Scale::Quick), None);
        let table = format_table(&[m]);
        assert!(table.contains("BER (ours)"));
        assert!(table.contains("BER (paper)"));
    }

    #[test]
    fn prover_json_is_well_formed() {
        let m = measure("ber", &row_circuit("ber", Scale::Quick), None);
        assert!(m.witness_map_time + m.msm_time <= m.prove_time);
        assert!(m.setup_qap_time + m.setup_commit_time <= m.setup_time);
        // 3ᵇ·2ᵏ with b ≤ 2 (Fr's 3-adicity), holding every constraint
        let odd = [9, 3, 1]
            .into_iter()
            .find(|&d| m.domain_size.is_multiple_of(d))
            .unwrap();
        assert!((m.domain_size / odd).is_power_of_two());
        assert!(m.domain_size >= m.constraints);
        let vt = VerifyThroughput {
            claims_per_s: 412.5,
            mean_ms: 2.4242,
            iters: 64,
        };
        let json = prover_json(&[m.clone(), m], Scale::Quick, Some(&vt));
        // structural sanity without a JSON parser: balanced braces/brackets,
        // both rows present, schema tag, comma between rows but not after
        // the last
        assert_eq!(json.matches('{').count(), json.matches('}').count());
        assert_eq!(json.matches('[').count(), json.matches(']').count());
        assert_eq!(json.matches("\"name\": \"ber\"").count(), 2);
        assert!(json.contains("\"schema\": \"zkrownn-bench-prover/v3\""));
        assert!(json.contains("\"setup_qap_s\""));
        assert!(json.contains("\"setup_commit_s\""));
        assert!(json.contains("\"peak_rss_bytes\""));
        assert!(json.contains("\"key_segments\""));
        assert!(json.contains("\"scale\": \"quick\""));
        assert!(json.contains("\"verify\": {\"entrypoint\": \"zkrownn_verify\""));
        assert!(json.contains("\"claims_per_s\": 412.50"));
        // without the measurement the document stays pure v3
        assert!(!prover_json(&[], Scale::Quick, None).contains("\"verify\""));
        assert!(json.contains("},\n"));
        assert!(json.trim_end().ends_with("]\n}"));
        assert!(!json.contains("NaN") && !json.contains("inf"));
    }
}
