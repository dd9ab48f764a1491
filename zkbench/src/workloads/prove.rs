//! `prove-cnn` and `prove-cnn-streamed`: the owner's cost on the quick
//! CIFAR-CNN circuit, with the proving key in memory or streamed from a
//! `.zkst` store at a 16 MB budget through the `pread` backend.
//!
//! Both variants prove the same circuit from the same spec, so whatever
//! separates their numbers is the `store` layer. After the timed proofs,
//! the claims just produced are checked with the statement-bound kit; that
//! check is this workload's verification sample.

use std::path::PathBuf;
use std::time::Instant;

use rand::rngs::StdRng;
use rand::SeedableRng;
use zkrownn::{
    Artifact, Authority, ExtractionSpec, MemoryBudget, OwnershipProof, ProverKit, SignedClaim,
    StoreBackend, StoredProverKit, VerifierKit, ZkrownnError,
};
use zkrownn_bench::{peak_rss_bytes, reset_peak_rss};
use zkrownn_ff::{Field, Fr};
use zkrownn_groth16::{
    create_proof_timed, create_proof_with_context_and_randomness, ProverContext,
};
use zkrownn_store::{create_proof_streamed, create_proof_streamed_timed};
use zkrownn_verifier::zkrownn_verify;

use super::{tail_floor, warm_verify, Config, SetupCosts, Timed, Workload};
use crate::corpus::{about_another_model, tampered, Circuit, Dispute};
use crate::trace::Tracer;

/// The streamed variant's memory budget for keygen chunks and MSM chunks.
pub const STREAM_BUDGET_MB: usize = 16;

/// Proofs a timed phase makes at the least.
const MIN_PROOFS: usize = 5;

/// Warm checks of the produced claims: the verification sample of a prove
/// workload (about 2.5 s at 3 ms a check).
const MIN_CHECKS: usize = 800;

/// The workload; `streamed` selects the store-backed variant.
pub struct Prove {
    /// Stream the key from a `.zkst` store instead of holding it in memory.
    pub streamed: bool,
}

/// Where the proving key lives. One per fixture, so the size gap between
/// the variants costs nothing worth a box.
#[allow(clippy::large_enum_variant)]
enum Prover {
    Memory(ProverKit),
    Stored(StoredProverKit),
}

impl Prover {
    fn prove(&self, rng: &mut StdRng) -> Result<SignedClaim, ZkrownnError> {
        match self {
            Prover::Memory(kit) => kit.prove(rng),
            Prover::Stored(kit) => kit.prove(rng),
        }
    }
}

/// What a prove workload builds before its first timed proof.
pub struct Fixture {
    spec: ExtractionSpec,
    prover: Prover,
    verifier: VerifierKit,
    vk_bytes: Vec<u8>,
    statement_bytes: Vec<u8>,
    costs: SetupCosts,
    /// The store file, on the streamed variant.
    store_path: Option<PathBuf>,
    rng: StdRng,
    /// Claims the timed phase produced, as artifacts.
    produced: Vec<Vec<u8>>,
}

fn budget() -> MemoryBudget {
    MemoryBudget::from_mb(STREAM_BUDGET_MB)
}

impl Workload for Prove {
    type Fixture = Fixture;

    fn name(&self) -> &'static str {
        if self.streamed {
            "prove-cnn-streamed"
        } else {
            "prove-cnn"
        }
    }

    fn setup(&self, cfg: &Config) -> Fixture {
        let rng = StdRng::seed_from_u64(cfg.seed ^ 0x7072_6f76_6572);
        if !self.streamed {
            // the corpus's CNN dispute, its one claim doubling as warm-up
            let d = Dispute::setup(Circuit::Cnn, cfg.seed, 1);
            warm_verify(&d.verifier, &d.claims[0]).expect("the warm-up claim verifies");
            return Fixture {
                costs: SetupCosts {
                    keygen: d.keygen,
                    prove: d.prove.clone(),
                    pk_bytes: d.prover.proving_key().serialized_size() as u64,
                    comm_bytes: d.comm_bytes() as f64,
                },
                spec: d.spec,
                prover: Prover::Memory(d.prover),
                verifier: d.verifier,
                vk_bytes: d.vk_bytes,
                statement_bytes: d.statement_bytes,
                store_path: None,
                rng,
                produced: Vec::new(),
            };
        }
        // the same dispute, the authority streaming the key to disk and the
        // owner proving from the store
        let spec = Circuit::Cnn.spec();
        let statement = spec.statement();
        let mut setup_rng = Circuit::Cnn.rng(cfg.seed);
        let path = cfg.work_dir.join("prove-cnn.zkst");
        let start = Instant::now();
        let verifier =
            Authority::setup_statement_stored(&statement, &path, &mut setup_rng, budget())
                .expect("streaming the key into the work directory");
        let keygen = start.elapsed();
        let kit = StoredProverKit::open_with(&path, spec.clone(), budget(), StoreBackend::Buffered)
            .expect("the store just written opens");
        let start = Instant::now();
        let claim = kit
            .prove(&mut setup_rng)
            .expect("the spec carries a valid witness");
        let warm_up = start.elapsed();
        verifier.verify(&claim).expect("the warm-up claim verifies");
        let vk_bytes = Artifact::to_bytes(verifier.verifying_key());
        let statement_bytes = Artifact::to_bytes(&statement);
        Fixture {
            costs: SetupCosts {
                keygen,
                prove: vec![warm_up],
                pk_bytes: kit.store().file().file_len(),
                comm_bytes: (vk_bytes.len() + statement_bytes.len() + claim.to_bytes().len())
                    as f64,
            },
            spec,
            prover: Prover::Stored(kit),
            verifier,
            vk_bytes,
            statement_bytes,
            store_path: Some(path),
            rng,
            produced: Vec::new(),
        }
    }

    fn setup_costs(&self, fx: &Fixture) -> SetupCosts {
        fx.costs.clone()
    }

    fn timed(&self, fx: &mut Fixture, cfg: &Config) -> Timed {
        let mut out = Timed::default();
        let proofs = cfg.budget(MIN_PROOFS, 2);
        // one high-water mark per proof. Under glibc's per-thread arenas the
        // mark climbs roughly 10 MB with every proof, so a figure over the
        // whole phase would follow the number of proofs the time box held;
        // the first proof's mark starts from the set-up's heap every time
        let mut peaks = Vec::new();
        let start = Instant::now();
        while !proofs.spent(start, out.prove_s.len()) {
            reset_peak_rss();
            let op = Instant::now();
            let claim = fx.prover.prove(&mut fx.rng);
            out.prove_s.push(op.elapsed().as_secs_f64());
            peaks.push(peak_rss_bytes());
            out.attempted += 1;
            match claim {
                Ok(claim) => fx.produced.push(claim.to_bytes()),
                Err(_) => out.failed += 1,
            }
        }
        out.peak_rss_bytes = peaks[0];
        out.notes.push(format!(
            "VmHWM per proof: {:.0} MB over the first, {:.0} MB over the last of {}",
            peaks[0] as f64 / 1e6,
            peaks[peaks.len() - 1] as f64 / 1e6,
            peaks.len()
        ));
        if fx.produced.is_empty() {
            return out;
        }

        // every claim produced is checked at least once; the checks are the
        // workload's verification sample, long enough to sit out the
        // transient the parallel proving leaves behind
        let checks = cfg
            .budget(tail_floor().max(MIN_CHECKS), 12)
            .min_ops
            .max(fx.produced.len());
        let start = Instant::now();
        for i in 0..checks {
            let op = Instant::now();
            let ok = warm_verify(&fx.verifier, &fx.produced[i % fx.produced.len()]).is_ok();
            out.verify_ms
                .push((Circuit::Cnn, op.elapsed().as_secs_f64() * 1e3));
            out.attempted += 1;
            out.failed += u64::from(!ok);
        }
        out.verify_elapsed_s = start.elapsed().as_secs_f64();
        out
    }

    fn gate_checks(&self) -> u64 {
        if self.streamed {
            4
        } else {
            3
        }
    }

    fn gate(&self, fx: &mut Fixture) -> Vec<String> {
        let mut failures = Vec::new();
        let Some(claim) = fx.produced.first() else {
            return vec!["the timed phase produced no claim".into()];
        };
        // the independent path: a stateless third party, from bytes
        if let Err(e) = zkrownn_verify(&fx.vk_bytes, &fx.statement_bytes, claim) {
            failures.push(format!("zkrownn_verify rejected a produced claim: {e}"));
        }
        match warm_verify(&fx.verifier, &tampered(claim)) {
            Err(ZkrownnError::InvalidProof(_)) => {}
            other => failures.push(format!("negated A: expected InvalidProof, got {other:?}")),
        }
        match warm_verify(&fx.verifier, &about_another_model(claim)) {
            Err(ZkrownnError::StatementMismatch) => {}
            other => failures.push(format!(
                "another model's statement: expected StatementMismatch, got {other:?}"
            )),
        }
        if let Prover::Stored(kit) = &fx.prover {
            // same assignment, same (r, s): the streamed proof must equal
            // the in-memory one byte for byte
            let identical = (|| -> Result<bool, ZkrownnError> {
                let pk = kit.store().load_proving_key()?;
                let ctx = ProverContext::for_circuit(&fx.spec.shape_circuit())?;
                let z = fx.spec.build()?.cs.full_assignment();
                let (r, s) = (Fr::random(&mut fx.rng), Fr::random(&mut fx.rng));
                let streamed = create_proof_streamed(kit.store(), &ctx, &z, r, s, budget())?;
                let in_memory = create_proof_with_context_and_randomness(&pk, &ctx, &z, r, s);
                Ok(streamed.to_bytes() == in_memory.to_bytes())
            })();
            if identical != Ok(true) {
                failures.push(format!(
                    "streamed vs. in-memory proof under one (r, s): {identical:?}"
                ));
            }
        }
        failures
    }

    fn traced(&self, fx: &mut Fixture, cfg: &Config, tracer: &mut Tracer) -> (u64, u64) {
        // the stored kit keeps its context to itself; lowering the circuit
        // again is set-up, not part of the operation
        let lowered;
        let ctx = match &fx.prover {
            Prover::Memory(kit) => kit.context(),
            Prover::Stored(_) => {
                lowered = ProverContext::for_circuit(&fx.spec.shape_circuit())
                    .expect("setup-mode synthesis cannot fail");
                &lowered
            }
        };
        let circuit_id = fx.verifier.circuit_id();
        let budgeted = cfg.budget(MIN_PROOFS, 2);
        let (mut attempted, mut failed) = (0u64, 0u64);
        let start = Instant::now();
        while !budgeted.spent(start, attempted as usize) {
            let (r, s) = (Fr::random(&mut fx.rng), Fr::random(&mut fx.rng));
            let claim = tracer.op(self.name(), Circuit::Cnn.tag(), |t| {
                let built = t.span("core.build_ms", |_| fx.spec.build()).ok()?;
                t.span("r1cs.is_satisfied_ms", |_| built.cs.is_satisfied())
                    .ok()?;
                let z = built.cs.full_assignment();
                let anchor = Instant::now();
                // the crates time their own phases; the spans are theirs
                let (proof, timings, names) = match &fx.prover {
                    Prover::Memory(kit) => {
                        let (proof, timings) = create_proof_timed(kit.proving_key(), ctx, &z, r, s);
                        (
                            proof,
                            timings,
                            ["groth16.witness_map_ms", "groth16.msm_phase_ms"],
                        )
                    }
                    Prover::Stored(kit) => {
                        let (proof, timings) =
                            create_proof_streamed_timed(kit.store(), ctx, &z, r, s, budget())
                                .ok()?;
                        (
                            proof,
                            timings,
                            ["store.witness_map_ms", "store.msm_phase_ms"],
                        )
                    }
                };
                let kernels = timings.witness_map + timings.msm;
                t.reported(names[0], anchor, Default::default(), timings.witness_map);
                t.reported(names[1], anchor, timings.witness_map, timings.msm);
                t.reported(
                    "groth16.assemble_ms",
                    anchor,
                    kernels,
                    timings.total.saturating_sub(kernels),
                );
                Some(SignedClaim {
                    statement: fx.spec.statement(),
                    proof: OwnershipProof {
                        proof,
                        verdict: built.verdict,
                        circuit_id,
                    },
                })
            });
            attempted += 1;
            // the decomposition must produce what `prove` produces: a claim
            // the bound kit accepts
            let accepted = claim.is_some_and(|c| fx.verifier.verify(&c).is_ok());
            failed += u64::from(!accepted);
        }
        (attempted, failed)
    }

    fn teardown(&self, fx: Fixture) {
        let path = fx.store_path.clone();
        drop(fx);
        if let Some(path) = path {
            let _ = std::fs::remove_file(path);
        }
    }
}
