//! Stand-alone probes: one public kernel of one crate at a time, on the
//! shared corpus. They fill the per-layer rows that are not a step of any
//! workload's own operation — field multiplies, single-family MSMs, one
//! FFT, bare synthesis, the keygen phases, the store's read backends, the
//! registry, coalescer and ledger called directly.
//!
//! A probe is the same procedure on every workload, so its row reads the
//! same everywhere (to within noise) and any traced run shows it. Small
//! kernels report a median over a few repetitions; the expensive ones
//! (keygen, the G2 MSM) run once.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

use rand::rngs::StdRng;
use rand::SeedableRng;
use zkrownn::artifact::TraceHasher;
use zkrownn::{Artifact, MemoryBudget, ShardedKeyRegistry, SignedClaim, StoreBackend};
use zkrownn_curves::msm::msm;
use zkrownn_curves::{FixedBaseTable, G1Config, G1Projective, G2Config};
use zkrownn_ff::{
    ActiveBackend, BigInt256, Field, FieldBackend, FpParams, Fq, FqParams, Fr, FrParams, PrimeField,
};
use zkrownn_groth16::{prepare_inputs, verify_proofs_batch_prepared, SetupContext, ToxicWaste};
use zkrownn_ledger::{verify_membership, LedgerLeaf, LedgeredRegistry};
use zkrownn_r1cs::{Circuit as _, SetupSynthesizer};
use zkrownn_service::{Coalescer, CoalescerConfig, Metrics};
use zkrownn_store::{segment_kind, sha256, write_proving_key, KeyStore, StoreMeta};

use crate::corpus::Corpus;
use crate::stats::Sample;
use crate::workloads::prove::STREAM_BUDGET_MB;
use crate::workloads::Config;

/// The probed rows, by name.
pub struct Probed(BTreeMap<String, f64>);

impl Probed {
    fn put(&mut self, name: impl Into<String>, value: f64) {
        self.0.insert(name.into(), value);
    }

    /// The reading of row `name`.
    ///
    /// # Panics
    /// Panics on a row no probe filled — a probe row declared in
    /// [`crate::defs`] without a measurement here.
    pub fn get(&self, name: &str) -> f64 {
        *self
            .0
            .get(name)
            .unwrap_or_else(|| panic!("{name} is declared a probe row but was not probed"))
    }
}

/// Median wall time of `f` over `reps` runs, in milliseconds.
fn median_ms<T>(reps: usize, mut f: impl FnMut() -> T) -> f64 {
    let runs = (0..reps)
        .map(|_| {
            let start = Instant::now();
            black_box(f());
            start.elapsed().as_secs_f64() * 1e3
        })
        .collect();
    Sample::new(runs).median().expect("at least one repetition")
}

/// Nanoseconds per multiply over a chain of dependent Montgomery products
/// through the active backend.
fn mul_chain_ns<P: FpParams>(seed: BigInt256, len: usize) -> f64 {
    let mut x = seed;
    let start = Instant::now();
    for _ in 0..len {
        x = ActiveBackend::mul_reduce::<P>(&x, &seed);
    }
    black_box(x);
    start.elapsed().as_nanos() as f64 / len as f64
}

/// Runs every probe over `corpus`.
pub fn run(corpus: &Corpus, cfg: &Config) -> Probed {
    // smoke keeps every probe but shortens the repeated ones
    let (few, many, chain) = if cfg.smoke {
        (1, 3, 10_000)
    } else {
        (3, 200, 1_000_000)
    };
    let mut rng = StdRng::seed_from_u64(cfg.seed ^ 0x7072_6f62);
    let mut rows = Probed(BTreeMap::new());
    let budget = MemoryBudget::from_mb(STREAM_BUDGET_MB);

    // ff
    let fq_seed = Fq::from_u64(3).pow(&[0x1357_9bdf]).into_bigint();
    let fr_seed = Fr::from_u64(3).pow(&[0x1357_9bdf]).into_bigint();
    rows.put("ff.fp_mul_ns", mul_chain_ns::<FqParams>(fq_seed, chain));
    rows.put("ff.fr_mul_ns", mul_chain_ns::<FrParams>(fr_seed, chain));

    // curves and poly, on the CNN key and a real assignment
    let cnn = &corpus.cnn;
    let pk = cnn.prover.proving_key();
    let ctx = cnn.prover.context();
    let z = cnn
        .spec
        .build()
        .expect("the corpus spec builds")
        .cs
        .full_assignment();
    let h = ctx.witness_map(&z);
    rows.put("curves.msm_g1_ms", median_ms(few, || msm(&pk.a_query, &z)));
    rows.put("curves.msm_g2_ms", median_ms(1, || msm(&pk.b_g2_query, &z)));
    rows.put("curves.msm_h_ms", median_ms(few, || msm(&pk.h_query, &h)));
    rows.put(
        "groth16.msm_terms",
        (pk.a_query.len()
            + pk.b_g1_query.len()
            + pk.b_g2_query.len()
            + pk.l_query.len()
            + pk.h_query.len()) as f64,
    );

    let domain = ctx.domain();
    let scalars: Vec<Fr> = (0..domain.size).map(|_| Fr::random(&mut rng)).collect();
    let table = FixedBaseTable::<G1Config>::new(
        G1Projective::generator(),
        FixedBaseTable::<G1Config>::suggested_window(scalars.len()),
    );
    rows.put(
        "curves.fixed_base_ms",
        median_ms(1, || table.mul_many(&scalars)),
    );
    drop(table);
    let mut values = scalars;
    rows.put(
        "poly.fft_ms",
        median_ms(few, || domain.fft_in_place(&mut values)),
    );
    rows.put(
        "poly.ifft_ms",
        median_ms(few, || domain.ifft_in_place(&mut values)),
    );
    rows.put("poly.domain_size", domain.size as f64);
    drop(values);

    // r1cs and core: bare synthesis, then synthesis into the trace hasher
    for d in [&corpus.mlp, &corpus.cnn] {
        let tag = d.circuit.tag();
        let shape = d.spec.shape_circuit();
        let mut counts = (0, 0);
        let bare = median_ms(few, || {
            let mut cs = SetupSynthesizer::<Fr>::new();
            shape
                .synthesize(&mut cs)
                .expect("setup-mode synthesis cannot fail");
            counts = (
                cs.num_constraints(),
                cs.num_instance_variables() + cs.num_witness_variables(),
            );
        });
        let hashed = median_ms(few, || {
            let mut cs = SetupSynthesizer::with_sink(TraceHasher::new());
            shape
                .synthesize(&mut cs)
                .expect("setup-mode synthesis cannot fail");
            cs.into_sink().finalize()
        });
        rows.put(format!("r1cs.shape_synth_ms.{tag}"), bare);
        rows.put(format!("core.shape_synth_ms.{tag}"), hashed);
        rows.put(format!("r1cs.constraints.{tag}"), counts.0 as f64);
        rows.put(format!("r1cs.variables.{tag}"), counts.1 as f64);
    }

    // groth16: one CNN keygen, phases as the crate reports them
    let mut cs = SetupSynthesizer::<Fr>::new();
    cnn.spec
        .shape_circuit()
        .synthesize(&mut cs)
        .expect("setup-mode synthesis cannot fail");
    let matrices = cs.to_matrices();
    drop(cs);
    let start = Instant::now();
    let setup = SetupContext::new(matrices);
    rows.put("groth16.context_ms", start.elapsed().as_secs_f64() * 1e3);
    let (fresh_key, timings) = setup.generate_timed(&ToxicWaste::sample(&mut rng));
    rows.put(
        "groth16.keygen_qap_ms",
        timings.qap_eval.as_secs_f64() * 1e3,
    );
    rows.put(
        "groth16.keygen_commit_ms",
        timings.commit.as_secs_f64() * 1e3,
    );
    drop(setup);

    // store: write that key, open it, stream it through both backends
    let path = cfg.work_dir.join("probe.zkst");
    let meta = StoreMeta {
        circuit_id: *cnn.verifier.circuit_id().as_bytes(),
        statement_digest: cnn.spec.statement().content_digest(),
    };
    rows.put(
        "store.write_key_ms",
        median_ms(1, || {
            write_proving_key(&path, &fresh_key, Some(meta)).expect("writing the probe store")
        }),
    );
    drop(fresh_key);
    rows.put(
        "store.open_ms",
        median_ms(few, || {
            KeyStore::open_with(&path, StoreBackend::Buffered).expect("the probe store opens")
        }),
    );
    for (row, backend) in [
        ("store.stream_pread_ms", StoreBackend::Buffered),
        ("store.stream_mmap_ms", StoreBackend::Mmap),
    ] {
        // a platform without the map reads 0 rather than failing the run
        let Ok(store) = KeyStore::open_with(&path, backend) else {
            rows.put(row, 0.0);
            continue;
        };
        rows.put(
            row,
            median_ms(few, || {
                use segment_kind::{A_QUERY, B_G1_QUERY, B_G2_QUERY, H_QUERY, L_QUERY};
                let mut points = 0usize;
                for kind in [A_QUERY, B_G1_QUERY, H_QUERY, L_QUERY] {
                    store
                        .stream_family::<G1Config>(kind, budget, |_, pts| points += pts.len())
                        .expect("the probe store streams");
                }
                store
                    .stream_family::<G2Config>(B_G2_QUERY, budget, |_, pts| points += pts.len())
                    .expect("the probe store streams");
                points
            }),
        );
        rows.put("store.segments", store.segment_count() as f64);
        rows.put("store.file_mb", store.file().file_len() as f64 / 1e6);
    }
    let _ = std::fs::remove_file(&path);
    let block = vec![0x5au8; 16 << 20];
    let hash_ms = median_ms(few, || sha256(&block));
    rows.put(
        "store.sha256_mb_per_s",
        block.len() as f64 / 1e6 / (hash_ms / 1e3),
    );
    drop(block);

    // groth16, core, service: the verify paths the service is built from
    let registry = Arc::new(ShardedKeyRegistry::new());
    for d in [&corpus.mlp, &corpus.cnn] {
        registry.register_kit(&d.verifier);
    }
    let coalescer = Coalescer::new(
        Arc::clone(&registry),
        Arc::new(Metrics::new()),
        CoalescerConfig::default(),
    );
    for d in [&corpus.mlp, &corpus.cnn] {
        let tag = d.circuit.tag();
        let claim = SignedClaim::from_bytes(&d.claims[0]).expect("corpus claims decode");
        let sixteen = vec![claim.clone(); 16];
        rows.put(
            format!("core.registry_verify_ms.{tag}"),
            median_ms(few, || {
                registry.verify(&claim).expect("a corpus claim verifies")
            }),
        );
        rows.put(
            format!("core.registry_batch16_ms_per_claim.{tag}"),
            median_ms(few, || {
                let verdicts = registry.verify_batch(&sixteen, &mut rng);
                assert!(verdicts.iter().all(Result::is_ok), "corpus claims verify");
            }) / 16.0,
        );
        rows.put(
            format!("service.coalescer_verify_ms.{tag}"),
            median_ms(few, || {
                coalescer
                    .verify(claim.clone())
                    .expect("a corpus claim verifies")
            }),
        );
    }
    let claim = SignedClaim::from_bytes(&cnn.claims[0]).expect("corpus claims decode");
    let pvk = cnn.verifier.verifying_key().prepare();
    let folded = prepare_inputs(&pvk, &claim.statement.public_inputs(claim.verdict()))
        .expect("the statement fits its key");
    let batch = vec![(claim.proof.proof.clone(), folded); 16];
    rows.put(
        "groth16.batch16_ms_per_claim",
        median_ms(few, || {
            verify_proofs_batch_prepared(&pvk, &batch, &mut rng).expect("corpus proofs verify")
        }) / 16.0,
    );

    // ledger: register, prove membership, verify it offline
    rows.put(
        "ledger.register_us",
        median_ms(few, || LedgeredRegistry::new().register_kit(&cnn.verifier)) * 1e3,
    );
    let ledger = LedgeredRegistry::new();
    for d in [&corpus.mlp, &corpus.cnn] {
        ledger.register_kit(&d.verifier);
    }
    let leaf = LedgerLeaf {
        circuit_id: cnn.verifier.circuit_id(),
        statement_digest: cnn
            .verifier
            .expected_statement()
            .expect("authority-issued kits are bound"),
    };
    rows.put(
        "ledger.prove_member_us",
        median_ms(many, || {
            ledger.prove_member(&leaf).expect("the leaf is registered")
        }) * 1e3,
    );
    let root = Artifact::to_bytes(&ledger.current_root());
    let proof = Artifact::to_bytes(&ledger.prove_member(&leaf).expect("the leaf is registered"));
    rows.put(
        "ledger.verify_membership_us",
        median_ms(many, || {
            verify_membership(&root, &leaf.to_bytes(), &proof).expect("the proof verifies")
        }) * 1e3,
    );

    rows
}
